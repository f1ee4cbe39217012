//! The scheduler's admin HTTP endpoint, built on the same route table and
//! HTTP plumbing as the per-engine `serve` endpoint ([`serve::http`]) —
//!
//! * `GET /metrics` — Prometheus text exposition of the cluster families
//!   (per-worker forwarded/requeued/reaped counters, forward latency,
//!   membership gauges);
//! * `GET /metrics.json` — the same registry as JSON;
//! * `GET /workers` — the live member table (readiness, last-reported
//!   `/readyz` reason, heartbeat age, queue depths);
//! * `GET /healthz` — process liveness;
//! * `GET /readyz` — 200 while at least one worker is ready, 503 otherwise;
//! * `POST /v1/sql` — NL translation forwarded through the full scheduler
//!   path (consistent-hash ring, worker TCP, retries), same request and
//!   refusal shapes as the per-engine `serve` endpoint. Raw-SQL bodies run
//!   against the scheduler's telemetry warehouse when `--warehouse` is on
//!   (`trace_spans`, `metrics_history`); the scheduler holds no corpus
//!   databases, so without a warehouse they are refused;
//! * `GET /v1/traces/<id>` — the assembled cross-process span tree of one
//!   traced request (scheduler hops + merged worker spans), when
//!   `--trace` is on.
//!
//! Scrapable with the same `serve::http::http_get`/`http_post` clients
//! the loadgen and tests already use.

use crate::scheduler::Inner;
use serve::http::{self, PathSpec, Request, Response, Route, Routed};
use serve::QueryError;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Metrics,
    MetricsJson,
    Workers,
    Healthz,
    Readyz,
    Sql,
    Trace,
}

const ROUTES: &[Route<Endpoint>] = &[
    Route { method: "GET", path: PathSpec::Exact("/metrics"), handler: Endpoint::Metrics },
    Route { method: "GET", path: PathSpec::Exact("/metrics.json"), handler: Endpoint::MetricsJson },
    Route { method: "GET", path: PathSpec::Exact("/workers"), handler: Endpoint::Workers },
    Route { method: "GET", path: PathSpec::Exact("/healthz"), handler: Endpoint::Healthz },
    Route { method: "GET", path: PathSpec::Exact("/readyz"), handler: Endpoint::Readyz },
    Route { method: "POST", path: PathSpec::Exact("/v1/sql"), handler: Endpoint::Sql },
    Route { method: "GET", path: PathSpec::Prefix("/v1/traces/"), handler: Endpoint::Trace },
];

/// Accept-and-respond loop; exits when the scheduler stops.
pub(crate) fn run(listener: TcpListener, inner: Arc<Inner>) {
    http::serve_loop(
        listener,
        || inner.stop.load(Ordering::SeqCst),
        |req| respond(req, &inner),
    );
}

fn respond(req: &Request, inner: &Arc<Inner>) -> Response {
    let outcome = http::route(ROUTES, &req.method, &req.path);
    if let Some(refused) = http::refusal(&outcome, &req.path) {
        return refused;
    }
    let Routed::Matched { handler, suffix } = outcome else {
        return Response::json_error(500, "unroutable request");
    };
    match handler {
        Endpoint::Metrics => {
            inner.refresh_gauges();
            Response::prometheus(inner.metrics.registry.render_prometheus())
        }
        Endpoint::MetricsJson => {
            inner.refresh_gauges();
            Response::json(200, inner.metrics.registry.render_json())
        }
        Endpoint::Workers => {
            let workers = inner.workers();
            Response::json(200, serde_json::to_string(&workers).unwrap_or_else(|_| "[]".into()))
        }
        Endpoint::Healthz => Response::text(200, "ok\n"),
        Endpoint::Readyz => {
            let ready = inner.ready_workers();
            if ready > 0 {
                Response::text(200, format!("ready ({ready} worker(s))\n"))
            } else {
                Response::text(503, "no ready workers\n")
            }
        }
        Endpoint::Sql => post_sql(req, inner),
        // the assembled cross-process span tree — the scheduler's own hops
        // plus the worker spans merged off `ExecuteResult` frames — in the
        // same JSON shape as the per-engine endpoint
        Endpoint::Trace => http::get_trace(inner.traces.as_ref(), suffix, "scheduler"),
    }
}

/// `POST /v1/sql`: parse the NL form, forward through the scheduler, and
/// answer with the worker's verdict. The scheduler holds no databases, so
/// raw-SQL bodies are redirected to a worker's own endpoint.
fn post_sql(req: &Request, inner: &Arc<Inner>) -> Response {
    let body = match http::body_json(req) {
        Ok(v) => v,
        Err(refused) => return refused,
    };
    if let Some(sql) = body.get("sql") {
        // Raw SQL runs against the scheduler's own telemetry warehouse
        // (trace_spans, metrics_history, eval tables) when it has one; the
        // scheduler still holds no corpus databases, so without a
        // warehouse raw SQL belongs on a worker.
        let serde::Value::Str(sql) = sql else {
            return Response::json_error(400, "\"sql\" must be a string");
        };
        let Some(warehouse) = inner.warehouse.as_ref() else {
            return Response::json_error(
                400,
                "the scheduler forwards NL requests only; POST raw SQL to a worker's /v1/sql \
                 (or start the scheduler with --warehouse to query its telemetry tables)",
            );
        };
        let executed = warehouse.lock().unwrap_or_else(|e| e.into_inner()).sql(sql);
        return match executed {
            Ok(rs) => Response::json(
                200,
                serde_json::to_string(&http::result_set_json(&rs)).unwrap_or_default(),
            ),
            Err(e) => Response::json_error(422, &e.to_string()),
        };
    }
    let request = match http::nl_request(&body, |_| {
        "NL requests need \"question\", \"db_id\", and \"method\" strings".to_string()
    }) {
        Ok(r) => r,
        Err(refused) => return refused,
    };
    let (tx, rx) = crossbeam::channel::bounded(1);
    inner.submit_job(0, tx, request);
    let reply = match rx.recv() {
        Ok((_, reply)) => reply,
        Err(_) => Err(QueryError::Internal),
    };
    match reply {
        Err(e) => Response::json_error(e.http_status(), &e.to_string()),
        Ok(resp) => http::nl_reply(&resp, None),
    }
}
