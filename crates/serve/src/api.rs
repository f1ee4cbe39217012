//! The versioned `/v1` JSON API plus the classic admin surface, dispatched
//! through the shared [`crate::http`] route table.
//!
//! Endpoints:
//!
//! * `POST /v1/sql` — NL question or raw SQL in, rows out as JSON. Raw SQL
//!   runs against a corpus database (`"db"`) or, with no `"db"`, against
//!   the eval store — which is how leaderboards over persisted runs become
//!   plain SQL over HTTP. NL requests go through the same admission queue,
//!   worker pool, cache, deadline, and static-check pipeline as in-process
//!   [`crate::ServiceHandle::query`] calls.
//! * `POST /v1/evals/<corpus>` — launch a background evaluation run;
//!   answers `202` with the run's API id immediately.
//! * `GET /v1/evals/<id>` / `GET /v1/evals` — run status.
//! * `GET /metrics`, `/metrics.json`, `/healthz`, `/readyz`, `/slow` — the
//!   pre-existing admin plane, now routed through the same table.
//!
//! Everything is served by one loopback listener ([`run`]) inside the
//! service's thread scope: [`http::serve_loop`] blocks in `accept` and
//! answers on its handler pool, so `respond` runs on several threads at
//! once. Shutdown sets `admin_stop` and wakes the listener
//! ([`crate::wake_listener`]).

use crate::http::{self, body_json, str_field, PathSpec, Request, Response, Route, Routed};
use crate::{EvalRun, Inner, QueryError, RunStatus};
use nl2sql360::EvalContext;
use std::net::TcpListener;
use std::sync::atomic::Ordering;

/// Handler tags for the service route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Metrics,
    MetricsJson,
    Healthz,
    Readyz,
    Slow,
    Sql,
    EvalStart,
    EvalStatus,
    EvalList,
    Trace,
}

/// The one route table serving both the admin plane and the `/v1` API.
pub(crate) const ROUTES: &[Route<Endpoint>] = &[
    Route { method: "GET", path: PathSpec::Exact("/metrics"), handler: Endpoint::Metrics },
    Route { method: "GET", path: PathSpec::Exact("/metrics.json"), handler: Endpoint::MetricsJson },
    Route { method: "GET", path: PathSpec::Exact("/healthz"), handler: Endpoint::Healthz },
    Route { method: "GET", path: PathSpec::Exact("/readyz"), handler: Endpoint::Readyz },
    Route { method: "GET", path: PathSpec::Exact("/slow"), handler: Endpoint::Slow },
    Route { method: "POST", path: PathSpec::Exact("/v1/sql"), handler: Endpoint::Sql },
    Route { method: "POST", path: PathSpec::Prefix("/v1/evals/"), handler: Endpoint::EvalStart },
    Route { method: "GET", path: PathSpec::Prefix("/v1/evals/"), handler: Endpoint::EvalStatus },
    Route { method: "GET", path: PathSpec::Exact("/v1/evals"), handler: Endpoint::EvalList },
    Route { method: "GET", path: PathSpec::Prefix("/v1/traces/"), handler: Endpoint::Trace },
];

/// Accept-and-respond loop; runs on its own scoped thread until the
/// service closure returns.
pub(crate) fn run(listener: TcpListener, inner: &Inner, ctx: &EvalContext<'_>) {
    http::serve_loop(
        listener,
        || inner.admin_stop.load(Ordering::Acquire),
        |req| respond(req, inner, ctx),
    );
}

/// Route and serve one request.
fn respond(req: &Request, inner: &Inner, ctx: &EvalContext<'_>) -> Response {
    let outcome = http::route(ROUTES, &req.method, &req.path);
    if let Some(refused) = http::refusal(&outcome, &req.path) {
        return refused;
    }
    let Routed::Matched { handler, suffix } = outcome else {
        return Response::json_error(500, "unroutable request");
    };
    match handler {
        Endpoint::Metrics => Response::prometheus(inner.metrics_text()),
        Endpoint::MetricsJson => {
            inner.refresh_gauges();
            Response::json(200, inner.telemetry.render_json())
        }
        Endpoint::Healthz => Response::text(200, "ok\n"),
        Endpoint::Readyz => match inner.readiness() {
            Ok(()) => Response::text(200, "ready\n"),
            Err(why) => Response::text(503, format!("{why}\n")),
        },
        Endpoint::Slow => {
            let entries = inner.telemetry.slow_entries();
            Response::json(200, serde_json::to_string(&entries).unwrap_or_else(|_| "[]".into()))
        }
        Endpoint::Sql => post_sql(req, inner, ctx),
        Endpoint::Trace => http::get_trace(inner.traces.as_ref(), suffix, "service"),
        Endpoint::EvalStart => post_eval(req, suffix, inner, ctx),
        Endpoint::EvalStatus => get_eval(suffix, inner),
        Endpoint::EvalList => {
            let runs = inner.evals.runs.lock().expect("runs lock poisoned");
            let list: Vec<serde::Value> =
                runs.iter().enumerate().map(|(i, r)| run_json(i, r)).collect();
            Response::json(200, serde_json::to_string(&serde::Value::Array(list)).unwrap_or_default())
        }
    }
}

/// `POST /v1/sql`: `{"sql": "...", "db": "..."?}` for raw SQL, or
/// `{"question": "...", "db_id": "...", "method": "...", "deadline_ms": N?}`
/// for an NL translation through the serve pipeline.
fn post_sql(req: &Request, inner: &Inner, ctx: &EvalContext<'_>) -> Response {
    let body = match body_json(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if body.get("sql").is_some() {
        raw_sql(&body, inner, ctx)
    } else if body.get("question").is_some() {
        nl_query(&body, inner, ctx)
    } else {
        Response::json_error(400, "body must carry either \"sql\" or \"question\"")
    }
}

/// The raw-SQL arm: sqlcheck admission (same policy as the serve
/// pipeline), then execution against the named corpus database or, with no
/// `"db"`, the eval store.
fn raw_sql(body: &serde::Value, inner: &Inner, ctx: &EvalContext<'_>) -> Response {
    let Some(sql) = str_field(body, "sql") else {
        return Response::json_error(400, "\"sql\" must be a string");
    };
    let db_id = match body.get("db") {
        None | Some(serde::Value::Null) => None,
        Some(serde::Value::Str(s)) => Some(s.as_str()),
        Some(_) => return Response::json_error(400, "\"db\" must be a string"),
    };
    if let Some(id) = db_id {
        if !ctx.corpus.databases.contains_key(id) {
            return Response::json_error(404, &format!("unknown database: {id}"));
        }
    }
    // Text past the parser's nesting budget is a malformed request, refused
    // here like any other bad body. Any other parse failure goes on to
    // execution, which reports it as the engine's 422.
    let parsed = sqlkit::parse_query(sql);
    if let Err(e) = &parsed {
        if e.kind == sqlkit::ErrorKind::NestingTooDeep {
            return Response::json_error(400, &e.to_string());
        }
    }
    // Static admission mirrors the NL pipeline: with the check on,
    // Error-severity diagnostics reject before execution.
    if inner.config.static_check {
        if let Ok(query) = &parsed {
            let catalog = match db_id {
                Some(id) => inner.catalogs.get(id),
                None => inner.evals.catalog.as_ref(),
            };
            if let Some(catalog) = catalog {
                let mut fired: Vec<sqlcheck::Rule> = sqlcheck::analyze(catalog, query)
                    .into_iter()
                    .filter(|d| d.severity == sqlcheck::Severity::Error)
                    .map(|d| d.rule)
                    .collect();
                fired.sort_by_key(|&r| r as usize);
                fired.dedup();
                if !fired.is_empty() {
                    let rules: Vec<String> =
                        fired.into_iter().map(|r| r.id().to_string()).collect();
                    return Response::json_error(
                        422,
                        &format!("statically invalid SQL ({})", rules.join(", ")),
                    );
                }
            }
        }
    }
    let executed = parsed.map_err(minidb::ExecError::from).and_then(|query| match db_id {
        Some(id) => ctx.corpus.databases[id].database.run_query(&query),
        None => inner
            .evals
            .store
            .lock()
            .expect("eval store lock poisoned")
            .database()
            .run_query(&query),
    });
    match executed {
        Ok(rs) => Response::json(
            200,
            serde_json::to_string(&result_set_json(&rs)).unwrap_or_default(),
        ),
        Err(e) => Response::json_error(422, &e.to_string()),
    }
}

/// The NL arm: build a [`QueryRequest`], run it through the normal
/// admission queue and worker pool, then execute the predicted SQL for the
/// actual rows.
fn nl_query(body: &serde::Value, inner: &Inner, ctx: &EvalContext<'_>) -> Response {
    let request = match http::nl_request(body, |field| match field {
        "question" => "\"question\" must be a string".to_string(),
        field => format!("NL requests need a \"{field}\" string"),
    }) {
        Ok(r) => r,
        Err(refused) => return refused,
    };
    let db_id = request.db_id.clone();
    let ticket = match inner.submit(request) {
        Ok(t) => t,
        Err(e) => return query_error_response(&e),
    };
    let resp = match ticket.wait() {
        Ok(r) => r,
        Err(e) => return query_error_response(&e),
    };
    // Rows come from re-executing the predicted SQL on the target
    // database; execution is deterministic, so this matches the outcome
    // the pipeline scored. A failed execution reports the failure kind and
    // `null` rows instead.
    let rows = if resp.exec_failure.is_none() {
        ctx.corpus
            .databases
            .get(&db_id)
            .and_then(|db| db.database.run(&resp.pred_sql).ok())
            .map(|rs| result_set_json(&rs))
    } else {
        None
    };
    http::nl_reply(&resp, Some(rows.unwrap_or(serde::Value::Null)))
}

/// `POST /v1/evals/<corpus>`: validate, register a queued run, hand it to
/// the eval-runner thread, answer `202` with the run's API id.
fn post_eval(req: &Request, corpus: &str, inner: &Inner, ctx: &EvalContext<'_>) -> Response {
    if !corpus.eq_ignore_ascii_case(ctx.corpus.kind.name()) {
        return Response::json_error(
            404,
            &format!("unknown corpus: {corpus} (this service serves {})", ctx.corpus.kind.name()),
        );
    }
    let body = match body_json(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(method) = str_field(&body, "method") else {
        return Response::json_error(400, "eval requests need a \"method\" string");
    };
    if !inner.method_index.contains_key(method) {
        return Response::json_error(400, &format!("unknown method: {method}"));
    }
    let subset = match usize_field(&body, "subset") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let workers = match usize_field(&body, "workers") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if workers == Some(0) {
        return Response::json_error(400, "\"workers\" must be >= 1");
    }
    let idx = {
        let mut runs = inner.evals.runs.lock().expect("runs lock poisoned");
        runs.push(EvalRun {
            corpus: corpus.to_string(),
            method: method.to_string(),
            subset,
            workers,
            status: RunStatus::Queued,
        });
        let idx = runs.len() - 1;
        // The runner thread is alive for the service's lifetime; a send can
        // only fail after shutdown began, in which case the run stays
        // queued. Sent under the lock: handlers run concurrently, and runs
        // execute in id order.
        let _ = inner.evals.jobs_tx.send(Some(idx));
        idx
    };
    let accepted = serde::Value::Map(vec![
        ("id".to_string(), serde::Value::Int(idx as i64 + 1)),
        ("status".to_string(), serde::Value::Str("queued".to_string())),
    ]);
    Response::json(202, serde_json::to_string(&accepted).unwrap_or_default())
}

/// `GET /v1/evals/<id>`.
fn get_eval(suffix: &str, inner: &Inner) -> Response {
    let Ok(id) = suffix.parse::<usize>() else {
        return Response::json_error(404, &format!("bad eval run id: {suffix}"));
    };
    let runs = inner.evals.runs.lock().expect("runs lock poisoned");
    match id.checked_sub(1).and_then(|i| runs.get(i)) {
        Some(run) => Response::json(
            200,
            serde_json::to_string(&run_json(id - 1, run)).unwrap_or_default(),
        ),
        None => Response::json_error(404, &format!("no eval run with id {id}")),
    }
}

/// Status JSON for one registered run. The API id (submission order) and
/// the store's `run_id` (persistence order) can differ when runs overlap;
/// completed runs carry both.
fn run_json(idx: usize, run: &EvalRun) -> serde::Value {
    let mut m = vec![
        ("id".to_string(), serde::Value::Int(idx as i64 + 1)),
        ("corpus".to_string(), serde::Value::Str(run.corpus.clone())),
        ("method".to_string(), serde::Value::Str(run.method.clone())),
    ];
    let status = match &run.status {
        RunStatus::Queued => "queued",
        RunStatus::Running => "running",
        RunStatus::Completed { .. } => "completed",
        RunStatus::Failed { .. } => "failed",
    };
    m.push(("status".to_string(), serde::Value::Str(status.to_string())));
    match &run.status {
        RunStatus::Completed { run_id, samples, ex, em } => {
            m.push(("run_id".to_string(), serde::Value::Int(*run_id)));
            m.push(("samples".to_string(), serde::Value::Int(*samples as i64)));
            m.push(("ex".to_string(), ex.map_or(serde::Value::Null, serde::Value::Float)));
            m.push(("em".to_string(), em.map_or(serde::Value::Null, serde::Value::Float)));
        }
        RunStatus::Failed { error } => {
            m.push(("error".to_string(), serde::Value::Str(error.clone())));
        }
        RunStatus::Queued | RunStatus::Running => {}
    }
    serde::Value::Map(m)
}

/// Map a [`QueryError`] to its HTTP refusal.
fn query_error_response(e: &QueryError) -> Response {
    Response::json_error(e.http_status(), &e.to_string())
}

/// Optional non-negative integer field; anything else is a `400`.
fn usize_field(v: &serde::Value, key: &str) -> Result<Option<usize>, Response> {
    match v.get(key) {
        None | Some(serde::Value::Null) => Ok(None),
        Some(serde::Value::Int(n)) if *n >= 0 => Ok(Some(*n as usize)),
        Some(_) => Err(Response::json_error(
            400,
            &format!("\"{key}\" must be a non-negative integer"),
        )),
    }
}

pub(crate) use crate::http::result_set_json;
