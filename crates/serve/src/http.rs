//! Minimal HTTP/1.0 plumbing shared by the serve and cluster admin/API
//! planes: one accept-and-respond loop ([`serve_loop`]: a blocking accept
//! feeding a small fixed pool of handler threads through a bounded queue,
//! so a connection is answered when it arrives and a slow request or a
//! silent client costs one handler, not the endpoint), request parsing
//! with bounded bodies, typed responses with an explicit `Content-Type`
//! on every reply, a method+path route table with correct `404`/`405`
//! semantics, and the blocking client helpers the tests, `serve-loadgen`,
//! and `scripts/check.sh --api` drive requests through.
//!
//! Still deliberately not a real HTTP stack: HTTP/1.0 only, one
//! connection per request, `Connection: close`, no chunked transfer —
//! exactly enough protocol for `curl`, a Prometheus scraper, and the
//! `/v1` JSON API. No keep-alive either: with blocking I/O a persistent
//! connection would pin a handler and put probes behind it. The server
//! is always the side that closes first, which keeps TIME_WAIT on its
//! own port instead of eating the client's ephemeral ones.

use crate::trace::TraceStore;
use crate::{QueryRequest, QueryResponse};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection read/write timeout; a client that stalls longer is
/// dropped so it cannot hold a handler.
const IO_TIMEOUT: Duration = Duration::from_millis(500);
/// Threads answering accepted connections; a slow request or a silent
/// client occupies one of them, the rest keep answering probes.
const HANDLER_THREADS: usize = 4;
/// Accepted connections that may wait for a handler. Past this the
/// acceptor blocks and later clients wait in the kernel backlog.
const PENDING_CONNECTIONS: usize = 64;
/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest request body an endpoint accepts; a larger `Content-Length` is
/// refused with `413 Payload Too Large` before any body bytes are read.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request: method, path (query string stripped), raw body,
/// and when its connection was accepted.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` stripped; the surface takes no
    /// query parameters.
    pub path: String,
    /// Raw request body (empty for bodyless requests).
    pub body: Vec<u8>,
    /// When [`serve_loop`] accepted the connection (when the request was
    /// read, for a request [`read_request`] parsed on its own). An NL
    /// request arrives here: its deadline and queue wait count the wait
    /// for a handler.
    pub accepted: Instant,
}

/// One response: status, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value; every response names one explicitly.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// An `application/json` response from already-serialized JSON.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "application/json", body: body.into() }
    }

    /// A Prometheus text-exposition response.
    pub fn prometheus(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
        }
    }

    /// The uniform JSON error shape:
    /// `{"error":{"status":N,"message":"..."}}`.
    pub fn json_error(status: u16, message: &str) -> Self {
        let map = vec![
            ("status".to_string(), serde::Value::Int(status as i64)),
            ("message".to_string(), serde::Value::Str(message.to_string())),
        ];
        let err = serde::Value::Map(vec![("error".to_string(), serde::Value::Map(map))]);
        Response::json(status, serde_json::to_string(&err).unwrap_or_default())
    }
}

/// Reason phrase for the status codes this surface emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write `resp` as a complete HTTP/1.0 response — head and body in one
/// `write_all`, so the body never waits as a second small segment behind
/// Nagle and the peer's delayed ACK — and flush.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Read and parse one request from `stream`.
///
/// The outer `Err` is a transport failure (drop the connection); the
/// inner `Err` is a well-formed refusal to send back: `400` for a
/// malformed request line or `Content-Length`, `413` when
/// `Content-Length` exceeds [`MAX_BODY_BYTES`] or the head outgrows its
/// bound without a terminator.
pub fn read_request(stream: &mut impl Read) -> std::io::Result<Result<Request, Response>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Ok(Err(Response::json_error(413, "request head too large")));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break buf.len();
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || !target.starts_with('/') {
        return Ok(Err(Response::json_error(400, "malformed request line")));
    }
    let mut declared: Option<usize> = None;
    for (_, v) in lines
        .filter_map(|l| l.split_once(':'))
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        match v.trim().parse::<usize>() {
            Ok(n) if declared.is_none_or(|seen| seen == n) => declared = Some(n),
            // unparsable, negative, overflowing, or two that disagree:
            // guessing a length would drop or misframe the body
            _ => return Ok(Err(Response::json_error(400, "malformed Content-Length"))),
        }
    }
    let content_length = declared.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(Response::json_error(
            413,
            &format!(
                "request body {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        )));
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(Response::json_error(400, "request body shorter than Content-Length")));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let path = target.split('?').next().unwrap_or("").to_string();
    Ok(Ok(Request { method: method.to_string(), path, body, accepted: Instant::now() }))
}

/// How a route matches the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSpec {
    /// The whole path, exactly.
    Exact(&'static str),
    /// A prefix with a nonempty remainder (e.g. `/v1/evals/` matching
    /// `/v1/evals/3` with suffix `3`).
    Prefix(&'static str),
}

/// One entry of a route table: method + path shape + handler tag.
#[derive(Debug, Clone, Copy)]
pub struct Route<H> {
    /// Request method this route answers.
    pub method: &'static str,
    /// Path shape this route answers.
    pub path: PathSpec,
    /// Opaque handler tag the plane dispatches on.
    pub handler: H,
}

/// Outcome of routing one request against a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routed<'r, H> {
    /// A route matched; `suffix` is the remainder after a
    /// [`PathSpec::Prefix`] (empty for exact matches).
    Matched {
        /// The matched route's handler tag.
        handler: &'r H,
        /// Path remainder after a prefix route; empty for exact routes.
        suffix: &'r str,
    },
    /// The path exists but not under this method; carries the allowed
    /// methods, in table order.
    MethodNotAllowed(Vec<&'static str>),
    /// No route knows the path.
    NotFound,
}

/// Match `(method, path)` against the table: first same-method route
/// wins; a path that matches only under other methods yields
/// [`Routed::MethodNotAllowed`] (the `405` the old `if`-chains never
/// produced per-path); anything else is [`Routed::NotFound`].
pub fn route<'r, H>(routes: &'r [Route<H>], method: &str, path: &'r str) -> Routed<'r, H> {
    let mut allowed: Vec<&'static str> = Vec::new();
    for r in routes {
        let suffix = match r.path {
            PathSpec::Exact(p) => (p == path).then_some(""),
            PathSpec::Prefix(p) => path.strip_prefix(p).filter(|s| !s.is_empty()),
        };
        let Some(suffix) = suffix else { continue };
        if r.method == method {
            return Routed::Matched { handler: &r.handler, suffix };
        }
        if !allowed.contains(&r.method) {
            allowed.push(r.method);
        }
    }
    if allowed.is_empty() {
        Routed::NotFound
    } else {
        Routed::MethodNotAllowed(allowed)
    }
}

/// The standard refusal responses for the non-`Matched` outcomes, shared
/// so both planes emit identical JSON error bodies.
pub fn refusal<H>(outcome: &Routed<'_, H>, path: &str) -> Option<Response> {
    match outcome {
        Routed::Matched { .. } => None,
        Routed::MethodNotAllowed(allow) => Some(Response::json_error(
            405,
            &format!("method not allowed on {path} (allow: {})", allow.join(", ")),
        )),
        Routed::NotFound => Some(Response::json_error(404, &format!("no route for {path}"))),
    }
}

/// Accept-and-respond loop shared by both planes: [`crate::accept_until`]
/// on the calling thread, [`HANDLER_THREADS`] scoped threads behind a
/// queue of [`PENDING_CONNECTIONS`] answering one request per connection.
/// Each connection is stamped when accepted; the stamp is its request's
/// [`Request::accepted`].
/// Exits — handlers joined, every queued connection answered — once
/// `stop()` is true and the listener was woken
/// ([`crate::wake_listener`]). Handler failures never take the listener
/// down.
pub fn serve_loop(
    listener: TcpListener,
    stop: impl Fn() -> bool,
    handler: impl Fn(&Request) -> Response + Sync,
) {
    let (tx, rx) = mpsc::sync_channel::<(TcpStream, Instant)>(PENDING_CONNECTIONS);
    // The handlers share the receiver; each holds the lock only to take a
    // connection, never through its exchange.
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..HANDLER_THREADS {
            let (rx, handler) = (&rx, &handler);
            scope.spawn(move || loop {
                let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((mut stream, accepted)) = next else { return };
                // Best-effort: a client dying mid-response must not take
                // the endpoint down.
                let _ = exchange(&mut stream, accepted, handler);
            });
        }
        // A full queue blocks the acceptor and the kernel backlog fills
        // behind it: back-pressure is the connection cap.
        crate::accept_until(&listener, stop, |stream| {
            let _ = tx.send((stream, Instant::now()));
        });
        drop(tx);
    });
}

/// One request, one response; the server closes first.
fn exchange(
    stream: &mut TcpStream,
    accepted: Instant,
    handler: &impl Fn(&Request) -> Response,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    match read_request(stream)? {
        Ok(req) => write_response(stream, &handler(&Request { accepted, ..req })),
        Err(refused) => {
            write_response(stream, &refused)?;
            discard_unread(stream);
            Ok(())
        }
    }
}

/// After refusing a request whose body was never read (a `413`): closing
/// with those bytes unread resets the connection, and the reset can reach
/// the client before the refusal does. So half-close, then discard what the
/// client sends until it closes too. This occupies one handler of
/// [`HANDLER_THREADS`], not the endpoint, and each read waits only for
/// what is left of one [`IO_TIMEOUT`], which bounds the whole stall.
fn discard_unread(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            return;
        }
    }
}

/// Minimal blocking HTTP GET; returns `(status, body)`. Shared by the
/// integration tests, `serve-loadgen --scrape`, and the check script so
/// scraping goes through the same client path everywhere.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: admin\r\n\r\n").as_bytes())?;
    read_reply(stream)
}

/// Minimal blocking HTTP POST with a JSON body; returns `(status, body)`.
/// The read timeout is generous because a `/v1/sql` NL request runs the
/// whole pipeline before its handler answers.
pub fn http_post(addr: SocketAddr, path: &str, json: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!(
            "POST {path} HTTP/1.0\r\nHost: admin\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{json}",
            json.len()
        )
        .as_bytes(),
    )?;
    read_reply(stream)
}

fn read_reply(mut stream: TcpStream) -> std::io::Result<(u16, String)> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidData, format!("bad status line: {raw:.80}"))
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

// ---------------------------------------------------------------------------
// `/v1` request parsing and replies, shared by the per-engine API and the
// scheduler's admin endpoint
// ---------------------------------------------------------------------------

/// Parse the request body as JSON, mapping every refusal to a `400` — a
/// body nested past [`serde_json::MAX_DEPTH`] included.
pub fn body_json(req: &Request) -> Result<serde::Value, Response> {
    if req.body.is_empty() {
        return Err(Response::json_error(400, "missing JSON body"));
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::json_error(400, "body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| Response::json_error(400, &format!("malformed JSON body: {e}")))
}

/// The string at `key`, if there is one.
pub fn str_field<'v>(v: &'v serde::Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(serde::Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// The NL form of `POST /v1/sql` — `question` / `db_id` / `method` strings
/// and an optional `deadline_ms` — as a [`QueryRequest`], or the `400` that
/// refuses it. `missing` words the refusal of the first required field
/// that is absent or not a string; the two endpoints phrase that one
/// differently.
pub fn nl_request(
    body: &serde::Value,
    missing: impl Fn(&str) -> String,
) -> Result<QueryRequest, Response> {
    let field = |key: &str| {
        str_field(body, key)
            .map(str::to_string)
            .ok_or_else(|| Response::json_error(400, &missing(key)))
    };
    let (question, db_id, method) = (field("question")?, field("db_id")?, field("method")?);
    let deadline = match body.get("deadline_ms") {
        None | Some(serde::Value::Null) => None,
        Some(serde::Value::Int(ms)) if *ms >= 0 => Some(Duration::from_millis(*ms as u64)),
        Some(_) => {
            return Err(Response::json_error(400, "\"deadline_ms\" must be a non-negative integer"))
        }
    };
    Ok(QueryRequest { method, db_id, question, deadline, trace: None })
}

/// The `200` that answers an NL request. `result` is the predicted SQL's
/// rows where the endpoint has the database to produce them (the engine;
/// the scheduler holds none and leaves the field out).
pub fn nl_reply(resp: &QueryResponse, result: Option<serde::Value>) -> Response {
    let mut out = vec![
        ("ex".to_string(), serde::Value::Bool(resp.ex)),
        ("em".to_string(), serde::Value::Bool(resp.em)),
        ("pred_sql".to_string(), serde::Value::Str(resp.pred_sql.clone())),
        (
            "exec_failure".to_string(),
            resp.exec_failure
                .map_or(serde::Value::Null, |k| serde::Value::Str(k.label().to_string())),
        ),
    ];
    if let Some(result) = result {
        out.push(("result".to_string(), result));
    }
    out.push(("cache_hit".to_string(), serde::Value::Bool(resp.cache_hit)));
    out.push(("batch_size".to_string(), serde::Value::Int(resp.batch_size as i64)));
    out.push(("latency_us".to_string(), serde::Value::Int(resp.latency.as_micros() as i64)));
    if !resp.trace_id.is_empty() {
        out.push(("trace_id".to_string(), serde::Value::Str(resp.trace_id.clone())));
    }
    Response::json(200, serde_json::to_string(&serde::Value::Map(out)).unwrap_or_default())
}

/// `GET /v1/traces/<id>`: the assembled span tree of one traced request,
/// as flat spans plus a parent-nested tree (see
/// [`crate::trace::trace_json`]). `process` names what was asked — "service"
/// or "scheduler" — when tracing is off there.
pub fn get_trace(store: Option<&TraceStore>, suffix: &str, process: &str) -> Response {
    let Some(store) = store else {
        return Response::json_error(
            404,
            &format!("request tracing is not enabled on this {process}"),
        );
    };
    let Some(id) = crate::trace::parse_trace_id(suffix) else {
        return Response::json_error(404, &format!("bad trace id: {suffix}"));
    };
    match store.spans(id) {
        Some(spans) => {
            let hex = crate::trace::format_trace_id(id);
            Response::json(
                200,
                serde_json::to_string(&crate::trace::trace_json(&hex, &spans)).unwrap_or_default(),
            )
        }
        None => Response::json_error(404, &format!("no trace with id {suffix} (unknown or evicted)")),
    }
}

/// The answer to a raw SQL body, shared by the per-engine API and the
/// scheduler's warehouse so both refuse alike: text nested past the
/// parser's budget is a malformed request (`400`, and nothing runs); any
/// other parse failure, or an `Err` from `run`, is the engine's `422`;
/// otherwise `200` with the rows as [`result_set_json`].
pub fn sql_reply<E: std::fmt::Display>(
    sql: &str,
    run: impl FnOnce(&sqlkit::Query) -> Result<minidb::ResultSet, E>,
) -> Response {
    let executed = match sqlkit::parse_query(sql) {
        Err(e) if e.kind == sqlkit::ErrorKind::NestingTooDeep => {
            return Response::json_error(400, &e.to_string())
        }
        Err(e) => Err(minidb::ExecError::from(e).to_string()),
        Ok(query) => run(&query).map_err(|e| e.to_string()),
    };
    match executed {
        Ok(rs) => {
            Response::json(200, serde_json::to_string(&result_set_json(&rs)).unwrap_or_default())
        }
        Err(message) => Response::json_error(422, &message),
    }
}

/// A [`minidb::ResultSet`] as plain JSON:
/// `{"columns": [...], "rows": [[...]], "row_count": N, "work": N}`.
/// Shared by the per-engine API (`POST /v1/sql`) and the scheduler admin
/// endpoint so both answer raw SQL in the same shape.
pub fn result_set_json(rs: &minidb::ResultSet) -> serde::Value {
    let columns = rs.columns.iter().map(|c| serde::Value::Str(c.clone())).collect();
    let rows = rs
        .rows
        .iter()
        .map(|row| serde::Value::Array(row.iter().map(db_value_json).collect()))
        .collect();
    serde::Value::Map(vec![
        ("columns".to_string(), serde::Value::Array(columns)),
        ("rows".to_string(), serde::Value::Array(rows)),
        ("row_count".to_string(), serde::Value::Int(rs.rows.len() as i64)),
        ("work".to_string(), serde::Value::Int(rs.work as i64)),
    ])
}

fn db_value_json(v: &minidb::Value) -> serde::Value {
    match v {
        minidb::Value::Null => serde::Value::Null,
        minidb::Value::Int(i) => serde::Value::Int(*i),
        minidb::Value::Real(f) => serde::Value::Float(*f),
        minidb::Value::Text(s) => serde::Value::Str(s.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Tag {
        A,
        B,
        C,
    }

    const TABLE: &[Route<Tag>] = &[
        Route { method: "GET", path: PathSpec::Exact("/x"), handler: Tag::A },
        Route { method: "POST", path: PathSpec::Exact("/x"), handler: Tag::B },
        Route { method: "GET", path: PathSpec::Prefix("/runs/"), handler: Tag::C },
    ];

    #[test]
    fn routing_dispatches_exact_and_prefix() {
        assert!(matches!(
            route(TABLE, "GET", "/x"),
            Routed::Matched { handler: Tag::A, suffix: "" }
        ));
        assert!(matches!(
            route(TABLE, "POST", "/x"),
            Routed::Matched { handler: Tag::B, .. }
        ));
        match route(TABLE, "GET", "/runs/17") {
            Routed::Matched { handler: Tag::C, suffix } => assert_eq!(suffix, "17"),
            other => panic!("expected prefix match, got {other:?}"),
        }
        // a bare prefix (empty suffix) does not match the prefix route
        assert_eq!(route(TABLE, "GET", "/runs/"), Routed::NotFound);
    }

    #[test]
    fn wrong_method_is_405_with_the_allowed_set() {
        match route(TABLE, "DELETE", "/x") {
            Routed::MethodNotAllowed(allow) => assert_eq!(allow, vec!["GET", "POST"]),
            other => panic!("expected 405, got {other:?}"),
        }
        assert_eq!(route(TABLE, "DELETE", "/nowhere"), Routed::NotFound);
        let resp = refusal(&route(TABLE, "DELETE", "/x"), "/x").expect("refused");
        assert_eq!(resp.status, 405);
        assert!(resp.body.contains("GET, POST"), "{}", resp.body);
        let resp = refusal(&route(TABLE, "GET", "/nope"), "/nope").expect("refused");
        assert_eq!(resp.status, 404);
        assert_eq!(resp.content_type, "application/json");
    }

    /// What the parser owes any input: a request, a `400` or `413`
    /// refusal, or a transport error — never a panic, never another status.
    fn typed(input: &[u8]) -> bool {
        match read_request(&mut &input[..]) {
            Ok(Ok(_)) | Err(_) => true,
            Ok(Err(refused)) => matches!(refused.status, 400 | 413),
        }
    }

    fn status(input: &[u8]) -> Option<u16> {
        read_request(&mut &input[..]).expect("slices never fail to read").err().map(|r| r.status)
    }

    fn post(content_length: usize, body: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "POST /v1/sql HTTP/1.0\r\nHost: admin\r\nContent-Type: application/json\r\n\
             Content-Length: {content_length}\r\n\r\n"
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn every_strict_prefix_of_a_valid_request_is_typed() {
        let json = br#"{"sql":"SELECT COUNT(*) FROM eval_runs"}"#;
        let get = b"GET /healthz HTTP/1.0\r\nHost: admin\r\n\r\n".to_vec();
        let cases = [(get, "/healthz", &b""[..]), (post(json.len(), json), "/v1/sql", &json[..])];
        for (full, path, body) in cases {
            let req = read_request(&mut &full[..]).expect("read").expect("valid request");
            assert_eq!((req.path.as_str(), req.body.as_slice()), (path, body));
            for cut in 0..full.len() {
                assert!(typed(&full[..cut]), "{:?}", String::from_utf8_lossy(&full[..cut]));
            }
        }
    }

    #[test]
    fn oversized_head_and_short_body_are_refused() {
        // no terminator within MAX_HEAD_BYTES: refused, not read forever
        let mut endless = b"GET /".to_vec();
        endless.resize(MAX_HEAD_BYTES + 100, b'a');
        assert_eq!(status(&endless), Some(413));
        // the body ends before its Content-Length does
        assert_eq!(status(&post(10, b"abc")), Some(400));
        assert_eq!(status(&post(MAX_BODY_BYTES + 1, b"")), Some(413));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes as they come (mostly a malformed or oversized
        /// head), and the same bytes as the body behind a valid head whose
        /// `Content-Length` may promise more, fewer or too many bytes.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            raw in proptest::collection::vec(proptest::any::<u8>(), 0..16 * 1024),
            declared in 0..MAX_BODY_BYTES + 2,
        ) {
            proptest::prop_assert!(typed(&raw));
            proptest::prop_assert!(typed(&post(declared, &raw)));
        }
    }

    #[test]
    fn json_error_shape_is_uniform() {
        let resp = Response::json_error(404, "no route for /zz");
        let v: serde::Value = serde_json::from_str(&resp.body).expect("valid JSON");
        let err = v.get("error").expect("error key");
        assert_eq!(err.get("status"), Some(&serde::Value::Int(404)));
        assert!(matches!(err.get("message"), Some(serde::Value::Str(_))));
    }
}
