//! Per-request distributed tracing: trace-id minting, a bounded
//! per-service span store, and span-tree assembly.
//!
//! Every traced request gets a `trace_id` minted at admission via the
//! shared FNV-1a key hash ([`crate::hash`]) mixed with a per-service
//! sequence number, so ids are unique across a burst of identical
//! requests yet cheap to mint on the hot path. The id travels externally
//! as a 16-char lowercase hex string — JSON-safe (a raw `u64` would
//! overflow the API's `i64` integer values), URL-safe, and greppable —
//! and internally as the `u64` it names.
//!
//! Spans land in a [`TraceStore`]: one bounded, insertion-order-evicting
//! map per service instance (NOT process-global — test processes run many
//! services concurrently, and their traces must not cross-contaminate).
//! Every span a process records is built by [`TraceStore::span`] and lands
//! through [`TraceStore::append`]. The serve pipeline's stage spans are derived at
//! completion from the request's stamps — one set of instants, each read
//! once, so the children tile the root and the root is the reply's
//! latency — and appended as one tree; the cluster scheduler keeps its own
//! store and appends the worker-side spans shipped back on `ExecuteResult`
//! frames with each forward hop, which is how one request's tree comes to
//! span three processes. A trace appended as complete is eligible for the
//! warehouse flusher, which persists it into the `trace_spans` minidb
//! table.
//!
//! Span ids must be unique *within a trace* even when two processes
//! contribute spans, so each store offsets its ids by a base derived from
//! its process label: `(fnv1a64(process) % 1e6) * 1e9 + counter`. The
//! result stays well inside `i64` (so it survives the JSON API and the
//! warehouse's INT column) and distinct process labels get distinct
//! ranges.
//!
//! Timestamps are **process-relative microseconds** (each store measures
//! from its own epoch). Cross-process clock alignment is deliberately out
//! of scope — the tree structure comes from explicit parent links, not
//! from timestamp nesting.

use crate::hash;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Render a trace id in its external form: 16 lowercase hex chars.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse an external trace id; `None` for anything that is not 1..=16
/// hex chars naming a nonzero id.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().filter(|&v| v != 0)
}

/// Wire form of a trace context, carried on [`crate::QueryRequest`] so a
/// scheduler's trace follows the request across the process boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// External (hex) trace id.
    pub trace_id: String,
    /// Span id in the *sender's* store that the receiver's root span
    /// should link to as its parent.
    pub parent_span: u64,
}

/// One completed span as stored, shipped between processes, and
/// persisted into the `trace_spans` warehouse table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// External (hex) trace id.
    pub trace_id: String,
    /// Unique id within the trace (see module docs for the cross-process
    /// uniqueness scheme).
    pub span_id: u64,
    /// Parent span id; 0 for the trace root.
    pub parent_id: u64,
    /// Stage name (`request`, `queue`, `execute`, `sched.dispatch`, ...).
    pub name: String,
    /// Which process recorded the span (`serve`, `sched`, a worker id).
    pub process: String,
    /// Process-relative start, microseconds since the store's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Space-separated `key=value` attributes (empty when none).
    #[serde(default)]
    pub attrs: String,
}

struct TraceEntry {
    trace_id: u64,
    spans: Vec<SpanRecord>,
    complete: bool,
    flushed: bool,
}

/// Traces a service's (or the scheduler's) store retains before evicting
/// the oldest.
pub const TRACE_CAPACITY: usize = 1024;

/// Bounded per-service span store; see the module docs.
pub struct TraceStore {
    capacity: usize,
    process: String,
    span_base: u64,
    epoch: Instant,
    next_seq: AtomicU64,
    next_span: AtomicU64,
    /// Insertion-ordered; evicts the oldest trace once over capacity.
    entries: Mutex<VecDeque<TraceEntry>>,
}

impl TraceStore {
    /// A store for `process`, holding at most `capacity` traces, with
    /// timestamps relative to `epoch`.
    pub fn new(process: &str, capacity: usize, epoch: Instant) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            process: process.to_string(),
            span_base: (hash::fnv1a64(process) % 1_000_000) * 1_000_000_000,
            epoch,
            next_seq: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Mint a fresh trace id for a request: the shared key hash over the
    /// request identity mixed with a per-store sequence number (so
    /// identical requests in one burst still get distinct traces).
    pub fn mint(&self, db_id: &str, question: &str, method: &str) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let h = hash::fnv1a64(&format!("{db_id}\0{question}\0{method}\0{seq}"));
        if h == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            h
        }
    }

    /// Mint a span id unique within any trace this store contributes to.
    pub fn next_span_id(&self) -> u64 {
        self.span_base + self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// The one constructor of a span recorded here: `name` in trace
    /// `trace_id`, covering `during`, labeled with this store's process and
    /// timed against its epoch.
    pub fn span(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: &str,
        during: Range<Instant>,
        attrs: String,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: format_trace_id(trace_id),
            span_id,
            parent_id,
            name: name.to_string(),
            process: self.process.clone(),
            start_us: during.start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: during.end.saturating_duration_since(during.start).as_micros() as u64,
            attrs,
        }
    }

    /// Append `spans` to their trace — created, evicting the oldest trace
    /// past capacity, when the store does not hold it — and with
    /// `complete` mark the trace finished, so the warehouse flusher may
    /// persist it. The one write entry: a traced serve request calls it
    /// once with its whole tree, the scheduler once per hop (with the
    /// worker's merged spans) and once to close its root.
    pub fn append(&self, trace_id: u64, spans: Vec<SpanRecord>, complete: bool) {
        if trace_id == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.iter_mut().rev().find(|t| t.trace_id == trace_id) {
            Some(entry) => {
                entry.spans.extend(spans);
                entry.complete |= complete;
            }
            None => {
                if entries.len() >= self.capacity {
                    entries.pop_front();
                }
                entries.push_back(TraceEntry { trace_id, spans, complete, flushed: false });
            }
        }
    }

    /// All spans of one trace, in recording order; `None` for a trace the
    /// store does not hold (never seen, or already evicted).
    pub fn spans(&self, trace_id: u64) -> Option<Vec<SpanRecord>> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().rev().find(|t| t.trace_id == trace_id).map(|t| t.spans.clone())
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every completed, not-yet-flushed trace, for the warehouse. The
    /// spans stay in the store (so `GET /v1/traces/<id>` keeps working)
    /// but are marked flushed and never returned again.
    pub fn drain_completed(&self) -> Vec<Vec<SpanRecord>> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter_mut()
            .filter(|entry| entry.complete && !entry.flushed)
            .map(|entry| {
                entry.flushed = true;
                entry.spans.clone()
            })
            .collect()
    }
}

/// A [`SpanRecord`] as the row shape the `trace_spans` warehouse table
/// takes, for [`crate::flush_warehouse`].
pub fn span_row(s: &SpanRecord) -> nl2sql360::TraceSpanRow {
    nl2sql360::TraceSpanRow {
        trace_id: s.trace_id.clone(),
        span_id: s.span_id as i64,
        parent_id: s.parent_id as i64,
        name: s.name.clone(),
        process: s.process.clone(),
        start_us: s.start_us as i64,
        dur_us: s.dur_us as i64,
        attrs: s.attrs.clone(),
    }
}

/// The assembled span tree of one trace as JSON: the shape behind
/// `GET /v1/traces/<id>` on both the serve and scheduler endpoints.
///
/// `spans` is the flat list (sorted by `(start_us, span_id)` — NOT
/// recording order, so assembly is deterministic however threads raced);
/// `tree` nests the same spans by parent link. Spans whose parent is not
/// in the trace (e.g. a worker root whose parent lives in the scheduler
/// when only the worker store is dumped) surface as roots.
pub fn trace_json(trace_hex: &str, spans: &[SpanRecord]) -> serde::Value {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|a| (a.start_us, a.span_id));
    let present: std::collections::BTreeSet<u64> = sorted.iter().map(|s| s.span_id).collect();
    let roots: Vec<serde::Value> = sorted
        .iter()
        .filter(|s| s.parent_id == 0 || !present.contains(&s.parent_id))
        .map(|s| tree_node(s, &sorted))
        .collect();
    serde::Value::Map(vec![
        ("trace_id".to_string(), serde::Value::Str(trace_hex.to_string())),
        ("span_count".to_string(), serde::Value::Int(spans.len() as i64)),
        (
            "spans".to_string(),
            serde::Value::Array(sorted.iter().map(|s| span_json(s)).collect()),
        ),
        ("tree".to_string(), serde::Value::Array(roots)),
    ])
}

fn span_json(s: &SpanRecord) -> serde::Value {
    serde::Value::Map(vec![
        ("span_id".to_string(), serde::Value::Int(s.span_id as i64)),
        ("parent_id".to_string(), serde::Value::Int(s.parent_id as i64)),
        ("name".to_string(), serde::Value::Str(s.name.clone())),
        ("process".to_string(), serde::Value::Str(s.process.clone())),
        ("start_us".to_string(), serde::Value::Int(s.start_us as i64)),
        ("dur_us".to_string(), serde::Value::Int(s.dur_us as i64)),
        ("attrs".to_string(), serde::Value::Str(s.attrs.clone())),
    ])
}

fn tree_node(s: &SpanRecord, sorted: &[&SpanRecord]) -> serde::Value {
    let children: Vec<serde::Value> = sorted
        .iter()
        .filter(|c| c.parent_id == s.span_id && c.span_id != s.span_id)
        .map(|c| tree_node(c, sorted))
        .collect();
    let serde::Value::Map(mut m) = span_json(s) else { unreachable!("span_json returns a map") };
    m.push(("children".to_string(), serde::Value::Array(children)));
    serde::Value::Map(m)
}

/// Render a span tree as indented text with per-stage durations — the
/// shape `serve-apictl trace <id>` prints. Deterministic for a given span
/// set (same ordering as [`trace_json`]).
pub fn render_tree_text(trace_hex: &str, spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|a| (a.start_us, a.span_id));
    let present: std::collections::BTreeSet<u64> = sorted.iter().map(|s| s.span_id).collect();
    let mut out = format!("trace {trace_hex} ({} spans)\n", spans.len());
    fn walk(out: &mut String, s: &SpanRecord, sorted: &[&SpanRecord], depth: usize) {
        let indent = "  ".repeat(depth);
        let attrs = if s.attrs.is_empty() { String::new() } else { format!("  [{}]", s.attrs) };
        let _ = writeln!(
            out,
            "{indent}{:<24} {:>10}us  @{} {}{attrs}",
            s.name, s.dur_us, s.process, s.span_id
        );
        for c in sorted {
            if c.parent_id == s.span_id && c.span_id != s.span_id {
                walk(out, c, sorted, depth + 1);
            }
        }
    }
    for s in &sorted {
        if s.parent_id == 0 || !present.contains(&s.parent_id) {
            walk(&mut out, s, &sorted, 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(trace: &str, span_id: u64, parent_id: u64, name: &str, start_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace.to_string(),
            span_id,
            parent_id,
            name: name.to_string(),
            process: "t".to_string(),
            start_us,
            dur_us: 10,
            attrs: String::new(),
        }
    }

    #[test]
    fn trace_id_hex_round_trips() {
        for id in [1u64, 0xabc, u64::MAX, 0x0123_4567_89ab_cdef] {
            let hex = format_trace_id(id);
            assert_eq!(hex.len(), 16);
            assert_eq!(parse_trace_id(&hex), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0000000000000000"), None, "zero is not a trace id");
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("00000000000000001"), None, "17 chars is too long");
    }

    #[test]
    fn minting_is_unique_per_request_and_nonzero() {
        let store = TraceStore::new("t", 8, Instant::now());
        let a = store.mint("db", "q", "M");
        let b = store.mint("db", "q", "M");
        assert_ne!(a, 0);
        assert_ne!(a, b, "identical requests still get distinct traces");
    }

    #[test]
    fn span_ids_carry_a_process_base() {
        let epoch = Instant::now();
        let a = TraceStore::new("sched", 8, epoch);
        let b = TraceStore::new("w1", 8, epoch);
        let ids: Vec<u64> = (0..4).map(|_| a.next_span_id()).chain((0..4).map(|_| b.next_span_id())).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "two stores never collide: {ids:?}");
        // ids fit the warehouse's i64 column
        assert!(ids.iter().all(|&i| i64::try_from(i).is_ok()));
    }

    #[test]
    fn store_bounds_traces_by_eviction() {
        let store = TraceStore::new("t", 2, Instant::now());
        for id in 1..=3u64 {
            store.append(id, vec![span("x", id * 10, 0, "request", 0)], false);
        }
        assert_eq!(store.len(), 2);
        assert!(store.spans(1).is_none(), "oldest trace evicted");
        assert!(store.spans(3).is_some());
    }

    #[test]
    fn drain_completed_returns_each_trace_once() {
        let store = TraceStore::new("t", 8, Instant::now());
        store.append(1, vec![span("a", 10, 0, "request", 0)], false);
        store.append(2, vec![span("b", 20, 0, "request", 0)], false);
        assert!(store.drain_completed().is_empty(), "incomplete traces stay");
        store.append(1, Vec::new(), true);
        let drained = store.drain_completed();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0][0].trace_id, "a");
        assert!(store.drain_completed().is_empty(), "already flushed");
        assert!(store.spans(1).is_some(), "flushed traces stay readable");
        store.append(2, Vec::new(), true);
        assert_eq!(store.drain_completed().len(), 1);
    }

    #[test]
    fn append_completes_a_rooted_tree_in_a_full_store() {
        let epoch = Instant::now();
        let store = TraceStore::new("serve", TRACE_CAPACITY, epoch);
        let ids: Vec<u64> = (0..TRACE_CAPACITY).map(|_| store.mint("db", "q", "M")).collect();
        for &id in &ids {
            store.append(id, Vec::new(), false);
        }
        let newest = *ids.last().expect("a full store");
        // one call carries the whole tree and completes it: the root over
        // [t0, t0 + 90us), children tiling it from consecutive instants
        let at = |us: u64| epoch + Duration::from_micros(us);
        let root = store.next_span_id();
        let child = |name: &str, from: u64, to: u64, attrs: &str| {
            store.span(newest, store.next_span_id(), root, name, at(from)..at(to), attrs.into())
        };
        let spans = vec![
            child("queue", 10, 60, ""),
            child("execute", 60, 100, "cache_hit=0"),
            store.span(newest, root, 0, "request", at(10)..at(100), "outcome=ok batch=1".into()),
        ];
        store.append(newest, spans, true);
        assert_eq!(store.len(), TRACE_CAPACITY, "appending to a held trace evicts nothing");
        assert!(store.spans(ids[0]).is_some(), "the oldest trace is still held");

        let spans = store.spans(newest).expect("trace recorded");
        let hex = format_trace_id(newest);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace_id == hex && s.process == "serve"));
        let request = &spans[2];
        assert_eq!((request.name.as_str(), request.span_id, request.parent_id), ("request", root, 0));
        assert_eq!((request.start_us, request.dur_us), (10, 90));
        assert_eq!(request.attrs, "outcome=ok batch=1");
        assert!(spans[..2].iter().all(|s| s.parent_id == root));
        assert_eq!(spans[0].dur_us + spans[1].dur_us, request.dur_us, "children tile the root");
        let drained = store.drain_completed();
        assert_eq!(drained, vec![spans], "only the completed tree drains");

        // a new trace past capacity evicts the oldest
        store.append(store.mint("db", "q", "M"), Vec::new(), false);
        assert_eq!(store.len(), TRACE_CAPACITY);
        assert!(store.spans(ids[0]).is_none(), "oldest trace evicted");
        assert!(store.spans(ids[1]).is_some());
    }

    #[test]
    fn tree_assembly_is_deterministic_and_nests_by_parent() {
        // recording order scrambled on purpose: assembly sorts by
        // (start_us, span_id), so any arrival order yields the same JSON
        let spans = vec![
            span("x", 3, 2, "exec", 60),
            span("x", 1, 0, "request", 0),
            span("x", 2, 1, "worker", 50),
            span("x", 4, 99, "orphan", 70), // parent not in trace -> root
        ];
        let mut reversed = spans.clone();
        reversed.reverse();
        let a = serde_json::to_string(&trace_json("x", &spans)).unwrap();
        let b = serde_json::to_string(&trace_json("x", &reversed)).unwrap();
        assert_eq!(a, b, "assembly must not depend on recording order");
        assert!(a.contains("\"span_count\":4"));
        // request > worker > exec nesting
        let v: serde::Value = serde_json::from_str(&a).unwrap();
        let serde::Value::Array(tree) = v.get("tree").unwrap() else { panic!("tree array") };
        assert_eq!(tree.len(), 2, "request root + orphan root");
        let text = render_tree_text("x", &spans);
        assert!(text.contains("trace x (4 spans)"));
        let req_line = text.lines().position(|l| l.contains("request")).unwrap();
        let exec_line = text.lines().position(|l| l.contains("exec")).unwrap();
        assert!(exec_line > req_line, "children print under their parent:\n{text}");
    }
}
