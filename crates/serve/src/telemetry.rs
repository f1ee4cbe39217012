//! The service's one accounting plane. Every answered request becomes one
//! [`Completion`]; [`Telemetry::record`] is the only code that writes the
//! labeled registry families (keyed by method, outcome and failure kind),
//! the sliding-window ring and the slow-query log, and
//! [`Telemetry::snapshot`] derives the public [`MetricsSnapshot`] from
//! those same cells — there is no second set of counters to keep in
//! agreement. Cells are pre-registered at service start, so recording only
//! touches lock-free atomics.

use crate::metrics::MetricsSnapshot;
use crate::slowlog::{SlowLog, SlowQueryEntry, SLOW_LOG_K, SLOW_LOG_RATE_PER_SEC};
use crate::window::{WindowReport, WindowRing, WINDOW_BUCKETS, WINDOW_BUCKET_MS};
use crate::{PendingTrace, QueryError, QueryReply};
use nl2sql360::ExecFailureKind;
use obs::{
    bucket_upper_bound, AtomicHistogram, Counter, Gauge, HistSnapshot, Histogram, Registry,
    HIST_BUCKETS,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The one record of an answered request, handed to `Inner::complete`.
pub(crate) struct Completion<'a> {
    /// What the caller receives.
    pub reply: QueryReply,
    /// What the worker that answered measured; `None` when admission
    /// answered (unknown method or question, overloaded) — such a request
    /// never queued, so it has no method cell, timings, batch or trace.
    pub work: Option<Work<'a>>,
}

/// The worker's side of a [`Completion`]: what ran, and the instants it
/// passed, each read once. Every duration recorded anywhere — histograms,
/// window, slow log, the ok reply's `latency`, the span tree — is a
/// difference of them, so latency is queue wait plus exec by construction.
pub(crate) struct Work<'a> {
    /// Index of the method that ran (into `Inner::models`).
    pub method: usize,
    pub db_id: &'a str,
    pub batch_size: usize,
    /// FNV-1a of the cache key, for the slow log; 0 unless the reply is ok.
    pub sql_hash: u64,
    /// Admission, worker pickup, and the answer (read once the pipeline
    /// returned, before `Inner::complete`).
    pub enqueued: Instant,
    pub started: Instant,
    pub finished: Instant,
    /// Ends of the stages in between.
    pub stages: Stages,
    /// The request's trace identity; `None` when tracing is off.
    pub trace: Option<PendingTrace>,
}

/// When each stage after pickup ended; `None` for a stage that did not
/// run (translation after a missed deadline, the static check when it is
/// off, execution after a refusal or rejection).
#[derive(Clone, Copy, Default)]
pub(crate) struct Stages {
    pub translated: Option<Instant>,
    pub checked: Option<Instant>,
    pub executed: Option<Instant>,
}

// Outcome labels: the values of `serve_responses_total{outcome}` and
// `serve_admission_rejects_total{reason}`, and a root span's `outcome=`.
const OK: &str = "ok";
const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
const REFUSED: &str = "refused";
const STATIC_REJECTED: &str = "static_rejected";
const UNKNOWN_METHOD: &str = "unknown_method";
const UNKNOWN_QUESTION: &str = "unknown_question";
const OVERLOADED: &str = "overloaded";

/// The label `reply` carries everywhere its outcome is exported.
pub(crate) fn outcome_label(reply: &QueryReply) -> &'static str {
    match reply {
        Ok(_) => OK,
        Err(QueryError::DeadlineExceeded) => DEADLINE_EXCEEDED,
        Err(QueryError::TranslationRefused) => REFUSED,
        Err(QueryError::StaticRejected(_)) => STATIC_REJECTED,
        Err(QueryError::UnknownMethod(_)) => UNKNOWN_METHOD,
        Err(QueryError::UnknownQuestion) => UNKNOWN_QUESTION,
        Err(QueryError::Overloaded) => OVERLOADED,
        // never completed: it is what a ticket reads when no reply came
        Err(QueryError::Internal) => "internal",
    }
}

/// The windows exported on `/metrics` (label value, width). Longer
/// windows clamp to the ring's coverage at scrape time.
const EXPORTED_WINDOWS: [(&str, Duration); 3] = [
    ("1s", Duration::from_secs(1)),
    ("10s", Duration::from_secs(10)),
    ("60s", Duration::from_secs(60)),
];

/// Pre-registered cells for one served method.
struct MethodCells {
    name: String,
    /// `serve_requests_total{method=...}` — requests a worker answered.
    /// Counted at completion like everything else (the HELP text still
    /// says "picked up": `/metrics` is byte-pinned), so a request stuck
    /// mid-pipeline is not in here yet and this never exceeds Σ responses.
    requests: Counter,
    /// `serve_responses_total{method,outcome}`, one cell per worker outcome.
    ok: Counter,
    deadline: Counter,
    refused: Counter,
    static_rejected: Counter,
    /// `serve_latency_us{method=...}` — submit-to-response, every outcome.
    latency: Histogram,
    /// `serve_exec_us{method=...}` — worker pickup-to-response, ok only.
    exec: Histogram,
}

/// All accounting state; one instance per running service.
pub(crate) struct Telemetry {
    registry: Registry,
    /// Indexed like `Inner::models`.
    per_method: Vec<MethodCells>,
    /// Indexed by `ExecFailureKind as usize`.
    exec_failures: Vec<Counter>,
    /// Indexed by `sqlcheck::Rule as usize` (registry declaration order).
    static_rejects: Vec<Counter>,
    cache_hit: Counter,
    cache_miss: Counter,
    rejected_overloaded: Counter,
    unknown_method: Counter,
    unknown_question: Counter,
    /// `serve_queue_wait_us` — known at pickup, recorded at completion.
    queue_wait: Histogram,
    queue_depth: Gauge,
    ready: Gauge,
    windows: WindowRing,
    slow: SlowLog,
    // The quantities below have no exported family; they exist for
    // `MetricsSnapshot` alone.
    /// Requests accepted into the queue.
    admitted: AtomicU64,
    /// Worker dequeue rounds, and the requests they carried.
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Latency of ok replies only (`serve_latency_us` covers every outcome).
    ok_latency: AtomicHistogram,
}

/// Prometheus-safe form of an [`ExecFailureKind`] label.
fn kind_label(kind: ExecFailureKind) -> String {
    kind.label().replace(' ', "_")
}

impl Telemetry {
    pub(crate) fn new(method_names: &[&str]) -> Telemetry {
        let registry = Registry::new();
        let requests = registry.counter_vec(
            "serve_requests_total",
            "Requests picked up by a worker, by method.",
            &["method"],
        );
        let responses = registry.counter_vec(
            "serve_responses_total",
            "Worker-answered requests by method and outcome.",
            &["method", "outcome"],
        );
        let latency = registry.histogram_vec(
            "serve_latency_us",
            "Submit-to-response latency in microseconds, by method.",
            &["method"],
        );
        let exec = registry.histogram_vec(
            "serve_exec_us",
            "Worker processing time (translate+execute+compare) in microseconds, by method.",
            &["method"],
        );
        let per_method = method_names
            .iter()
            .map(|m| MethodCells {
                name: m.to_string(),
                requests: requests.with(&[m]),
                ok: responses.with(&[m, OK]),
                deadline: responses.with(&[m, DEADLINE_EXCEEDED]),
                refused: responses.with(&[m, REFUSED]),
                static_rejected: responses.with(&[m, STATIC_REJECTED]),
                latency: latency.with(&[m]),
                exec: exec.with(&[m]),
            })
            .collect();
        let failures = registry.counter_vec(
            "serve_exec_failures_total",
            "Execution failures by minidb error kind.",
            &["kind"],
        );
        let exec_failures = ExecFailureKind::ALL
            .iter()
            .map(|&k| failures.with(&[&kind_label(k)]))
            .collect();
        let statics = registry.counter_vec(
            "serve_static_rejects_total",
            "Static-check admission rejections by diagnostic rule.",
            &["rule"],
        );
        let static_rejects = sqlcheck::Rule::ALL.iter().map(|r| statics.with(&[r.id()])).collect();
        let cache = registry.counter_vec(
            "serve_cache_requests_total",
            "Execution-cache lookups by result.",
            &["result"],
        );
        let rejects = registry.counter_vec(
            "serve_admission_rejects_total",
            "Requests answered without reaching a worker, by reason.",
            &["reason"],
        );
        Telemetry {
            per_method,
            exec_failures,
            static_rejects,
            cache_hit: cache.with(&["hit"]),
            cache_miss: cache.with(&["miss"]),
            rejected_overloaded: rejects.with(&[OVERLOADED]),
            unknown_method: rejects.with(&[UNKNOWN_METHOD]),
            unknown_question: rejects.with(&[UNKNOWN_QUESTION]),
            queue_wait: registry
                .histogram_vec(
                    "serve_queue_wait_us",
                    "Time spent queued before worker pickup, in microseconds.",
                    &[],
                )
                .with(&[]),
            queue_depth: registry
                .gauge_vec("serve_queue_depth", "Requests currently queued.", &[])
                .with(&[]),
            ready: registry
                .gauge_vec(
                    "serve_ready",
                    "1 while the service accepts traffic, 0 while draining or saturated.",
                    &[],
                )
                .with(&[]),
            windows: WindowRing::new(WINDOW_BUCKET_MS, WINDOW_BUCKETS),
            slow: SlowLog::new(SLOW_LOG_K, SLOW_LOG_RATE_PER_SEC),
            registry,
            admitted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            ok_latency: AtomicHistogram::default(),
        }
    }

    /// One request entered the queue.
    pub(crate) fn admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One worker dequeue round carrying `requests` same-method requests.
    pub(crate) fn batch(&self, requests: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(requests as u64, Ordering::Relaxed);
    }

    /// Account one answered request; windows and the slow log time it
    /// against the service's `epoch`.
    pub(crate) fn record(&self, c: &Completion<'_>, epoch: Instant) {
        let Some(w) = &c.work else {
            return match &c.reply {
                Err(QueryError::UnknownMethod(_)) => self.unknown_method.inc(),
                Err(QueryError::UnknownQuestion) => self.unknown_question.inc(),
                _ => self.rejected_overloaded.inc(),
            };
        };
        let cells = &self.per_method[w.method];
        cells.requests.inc();
        let queue_wait = w.started - w.enqueued;
        let latency = w.finished - w.enqueued;
        self.queue_wait.record_duration(queue_wait);
        cells.latency.record_duration(latency);
        let latency_us = latency.as_micros() as u64;
        let now = w.finished - epoch;
        let at_ms = now.as_millis() as u64;
        let error = match &c.reply {
            Ok(r) => {
                cells.ok.inc();
                let exec = w.finished - w.started;
                cells.exec.record_duration(exec);
                self.ok_latency.record(latency_us);
                if r.cache_hit { &self.cache_hit } else { &self.cache_miss }.inc();
                if let Some(kind) = r.exec_failure {
                    self.exec_failures[kind as usize].inc();
                }
                self.slow.offer(
                    at_ms,
                    SlowQueryEntry {
                        sql_hash: w.sql_hash,
                        method: cells.name.clone(),
                        db_id: w.db_id.to_string(),
                        latency_us,
                        queue_wait_us: queue_wait.as_micros() as u64,
                        exec_us: exec.as_micros() as u64,
                        cache_hit: r.cache_hit,
                        at_ms,
                        trace_id: r.trace_id.clone(),
                    },
                );
                r.exec_failure.is_some()
            }
            Err(QueryError::DeadlineExceeded) => {
                cells.deadline.inc();
                true
            }
            Err(QueryError::StaticRejected(ids)) => {
                cells.static_rejected.inc();
                for rule in ids.iter().filter_map(|id| sqlcheck::Rule::from_id(id)) {
                    self.static_rejects[rule as usize].inc();
                }
                true
            }
            // `TranslationRefused`: the last way a worker answers
            Err(_) => {
                cells.refused.inc();
                true
            }
        };
        self.windows.record(now, latency_us, error);
    }

    /// Successful responses so far — the counters only, for callers (the
    /// cluster heartbeat) that would otherwise build a whole snapshot.
    pub(crate) fn completed(&self) -> u64 {
        self.per_method.iter().map(|c| c.ok.get()).sum()
    }

    /// The public point-in-time view, summed over the per-method cells.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let sum = |cell: fn(&MethodCells) -> &Counter| -> u64 {
            self.per_method.iter().map(|c| cell(c).get()).sum()
        };
        let unresolved = self.unknown_method.get() + self.unknown_question.get();
        // `submitted` is read first so a racing request can only make
        // `lost()` transiently negative, which it clamps.
        let submitted = self.admitted.load(Ordering::Relaxed) + unresolved;
        let static_rejected = sum(|c| &c.static_rejected);
        let (hits, misses) = (self.cache_hit.get(), self.cache_miss.get());
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let (mut buckets, mut exec_sum) = ([0u64; HIST_BUCKETS], 0u64);
        for cells in &self.per_method {
            cells.exec.inner().accumulate(&mut buckets, &mut exec_sum);
        }
        let exec =
            HistSnapshot { buckets: buckets.to_vec(), count: buckets.iter().sum(), sum: exec_sum };
        let latency = self.ok_latency.snapshot();
        let queue = self.queue_wait.inner().snapshot();
        let q = |h: &HistSnapshot, q: f64| h.quantile(q).map(Duration::from_micros);
        MetricsSnapshot {
            submitted,
            completed: self.completed(),
            rejected_overloaded: self.rejected_overloaded.get(),
            deadline_exceeded: sum(|c| &c.deadline),
            failed: unresolved + sum(|c| &c.refused) + static_rejected,
            static_rejected,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            mean_batch_size: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            p50: q(&latency, 0.50),
            p95: q(&latency, 0.95),
            p99: q(&latency, 0.99),
            queue_p50: q(&queue, 0.50),
            queue_p95: q(&queue, 0.95),
            queue_p99: q(&queue, 0.99),
            exec_p50: q(&exec, 0.50),
            exec_p95: q(&exec, 0.95),
            exec_p99: q(&exec, 0.99),
            exec_failures: ExecFailureKind::ALL
                .iter()
                .map(|&k| (k, self.exec_failures[k as usize].get()))
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }

    /// Point-in-time gauges are set at scrape time, not on the hot path.
    pub(crate) fn set_gauges(&self, queue_depth: usize, ready: bool) {
        self.queue_depth.set(queue_depth as u64);
        self.ready.set(u64::from(ready));
    }

    /// Windowed aggregate over the last `window` (clamped to ring
    /// coverage); `now` is service-relative.
    pub(crate) fn window_report(&self, now: Duration, window: Duration) -> WindowReport {
        self.windows.report(now, window)
    }

    /// Current slow-query log, slowest first.
    pub(crate) fn slow_entries(&self) -> Vec<SlowQueryEntry> {
        self.slow.entries()
    }

    /// The `/metrics.json` body: the registry families as JSON.
    pub(crate) fn render_json(&self) -> String {
        self.registry.render_json()
    }

    /// The exposition body served on `/metrics`: the service registry
    /// (cumulative families), the sliding-window series as of `now`
    /// (service-relative), and the bridged global-recorder families (span
    /// data from the tracing layer, when the recorder is on).
    pub(crate) fn render_prometheus(&self, now: Duration) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str(&self.render_windows(now));
        let snap = obs::snapshot();
        if !snap.counters.is_empty() || !snap.histograms.is_empty() || !snap.events.is_empty() {
            out.push_str(&obs::registry::bridge_recorder(&snap).render_prometheus());
        }
        out
    }

    /// Hand-rendered windowed series, in the same exposition dialect the
    /// registry emits (`window` label values are fixed strings, so no
    /// escaping is needed).
    fn render_windows(&self, now: Duration) -> String {
        let mut out = String::new();
        out.push_str("# HELP serve_window_qps Finished requests per second over the window.\n");
        out.push_str("# TYPE serve_window_qps gauge\n");
        for (label, width) in EXPORTED_WINDOWS {
            let r = self.windows.report(now, width);
            let _ = writeln!(out, "serve_window_qps{{window=\"{label}\"}} {}", r.qps);
        }
        out.push_str(
            "# HELP serve_window_error_rate Fraction of windowed requests that errored.\n",
        );
        out.push_str("# TYPE serve_window_error_rate gauge\n");
        for (label, width) in EXPORTED_WINDOWS {
            let r = self.windows.report(now, width);
            let _ =
                writeln!(out, "serve_window_error_rate{{window=\"{label}\"}} {}", r.error_rate);
        }
        out.push_str(
            "# HELP serve_window_latency_us Windowed request latency in microseconds.\n",
        );
        out.push_str("# TYPE serve_window_latency_us histogram\n");
        for (label, width) in EXPORTED_WINDOWS {
            let snap = self.windows.histogram(now, width);
            let mut cum = 0u64;
            for (i, &n) in snap.buckets.iter().enumerate().take(HIST_BUCKETS) {
                cum += n;
                let le = if i + 1 == HIST_BUCKETS {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                let _ = writeln!(
                    out,
                    "serve_window_latency_us_bucket{{window=\"{label}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(out, "serve_window_latency_us_sum{{window=\"{label}\"}} {}", snap.sum);
            let _ =
                writeln!(out, "serve_window_latency_us_count{{window=\"{label}\"}} {}", snap.count);
        }
        out
    }
}
