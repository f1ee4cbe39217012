//! Zero-dependency structured observability: spans, counters, and latency
//! histograms behind one global recorder.
//!
//! The recorder is process-global and **off by default**. Every recording
//! entry point first does a single relaxed atomic load; when disabled the
//! call returns immediately, so instrumentation left in hot paths costs a
//! branch and nothing else (`scripts/check.sh --lint` enforces a < 5%
//! disabled-path budget on the evaluation bench).
//!
//! Three primitives:
//!
//! - **Spans** — wall-clock intervals with a static name, recorded per
//!   thread. [`span`] returns an RAII guard; [`enter`] / [`exit`] are the
//!   manual form and tolerate mismatched exits (tracked under the
//!   `obs.span_mismatch` counter instead of panicking).
//! - **Counters** — named monotonic `u64`s via [`count`].
//! - **Histograms** — power-of-two bucketed value distributions via
//!   [`observe`] / [`observe_duration`], mirroring the bucket math of the
//!   serve-layer latency histogram so quantiles line up across layers.
//!
//! [`snapshot`] drains nothing — it copies the current state, so a
//! long-running service can export periodically. [`reset`] clears it.
//! Export formats live in [`export`]: chrome `trace_event` JSON (loadable
//! in `chrome://tracing` / Perfetto) and a text flame summary with
//! self-time attribution.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod export;
pub mod registry;

pub use registry::{
    AtomicHistogram, Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec, Registry,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global recorder state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Per-thread span buffers are capped so a runaway loop with tracing left
/// on degrades to counting drops instead of exhausting memory.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    Instant::now().saturating_duration_since(epoch()).as_micros() as u64
}

/// One completed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Recorder-assigned logical thread id (stable per OS thread).
    pub tid: u64,
    /// Microseconds since the recorder epoch.
    pub start_us: u64,
    pub dur_us: u64,
    /// Request trace this span belongs to (0 = not part of a trace).
    pub trace_id: u64,
    /// Recorder-assigned span id within the trace (0 when untraced).
    pub span_id: u64,
    /// Span id of the enclosing span (0 = trace root / untraced).
    pub parent_id: u64,
    /// Key=value attributes attached via [`Span::attr`].
    pub attrs: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct ThreadBuf {
    events: Vec<SpanEvent>,
    dropped: u64,
}

struct RecorderState {
    bufs: Vec<Arc<Mutex<ThreadBuf>>>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

fn recorder_state() -> &'static Mutex<RecorderState> {
    static STATE: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(RecorderState {
            bufs: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        })
    })
}

fn lock_registry() -> std::sync::MutexGuard<'static, RecorderState> {
    recorder_state().lock().unwrap_or_else(|e| e.into_inner())
}

type SpanStack = RefCell<Vec<(&'static str, u64)>>;

thread_local! {
    /// (logical tid, shared buffer registered with the global registry,
    ///  manual enter/exit stack)
    static LOCAL: (u64, Arc<Mutex<ThreadBuf>>, SpanStack) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(Mutex::new(ThreadBuf::default()));
        lock_registry().bufs.push(Arc::clone(&buf));
        (tid, buf, RefCell::new(Vec::new()))
    };
}

fn record_event(ev: SpanEvent) {
    LOCAL.with(|(_, buf, _)| {
        let mut b = buf.lock().unwrap_or_else(|e| e.into_inner());
        if b.events.len() < MAX_EVENTS_PER_THREAD {
            b.events.push(ev);
        } else {
            b.dropped += 1;
        }
    });
}

// ---------------------------------------------------------------------------
// Enable / disable
// ---------------------------------------------------------------------------

/// Is the global recorder currently recording?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off. Prefer [`enable`] when the previous state
/// should be restored on scope exit.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before any span can observe it so timestamps are
        // monotone from the first enable.
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// RAII guard restoring the previous enabled state on drop.
#[must_use = "the recorder is disabled again when the guard drops"]
pub struct EnableGuard {
    prev: bool,
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        ENABLED.store(self.prev, Ordering::Relaxed);
    }
}

/// Enable recording, returning a guard that restores the previous state.
pub fn enable() -> EnableGuard {
    let prev = ENABLED.swap(true, Ordering::Relaxed);
    epoch();
    EnableGuard { prev }
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Per-request trace context: which trace the calling code is working for
/// and which span is the current parent. `(0, 0)` means "no trace"; spans
/// started under it stay anonymous exactly as before this layer existed.
///
/// The context is thread-local and explicitly installed via [`with_ctx`],
/// so it crosses threads (and processes) only where a caller deliberately
/// carries it — e.g. serve's worker loop adopting the context minted at
/// admission, or a cluster worker adopting the scheduler's context from a
/// `serve::proto` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Request trace id (0 = none).
    pub trace_id: u64,
    /// Parent span id for the next span started under this context.
    pub span_id: u64,
}

impl TraceCtx {
    /// The empty context: spans started under it carry no trace.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, span_id: 0 };

    /// Does this context name a trace?
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

thread_local! {
    static CURRENT_CTX: std::cell::Cell<TraceCtx> = const { std::cell::Cell::new(TraceCtx::NONE) };
}

/// The calling thread's current trace context.
pub fn current_ctx() -> TraceCtx {
    CURRENT_CTX.with(|c| c.get())
}

/// Restores the previous thread-local trace context on drop.
#[must_use = "the previous trace context is restored when the guard drops"]
pub struct CtxGuard {
    prev: TraceCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT_CTX.with(|c| c.set(self.prev));
    }
}

/// Install `ctx` as the calling thread's trace context until the guard
/// drops. Spans started meanwhile inherit `ctx.trace_id` and link to
/// `ctx.span_id` as their parent.
pub fn with_ctx(ctx: TraceCtx) -> CtxGuard {
    CURRENT_CTX.with(|c| CtxGuard { prev: c.replace(ctx) })
}

/// Mint a fresh recorder-unique span id (for callers that assemble their
/// own span records, e.g. serve's per-request trace store).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII span guard from [`span`]: records one [`SpanEvent`] on drop.
///
/// Enablement is sampled at construction: a span started while the
/// recorder is on is recorded even if the recorder turns off before the
/// guard drops (and vice versa a span started while off stays inert).
#[must_use = "the span is recorded when the guard drops"]
pub struct Span {
    name: &'static str,
    start: Option<(u64, Instant)>,
    /// `(own ctx, previous ctx)` when this span joined a trace; the own
    /// ctx was installed thread-locally so child spans link to it, and
    /// the previous one is restored on drop.
    ctx: Option<(TraceCtx, TraceCtx)>,
    attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span name this guard was created with.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attach a key=value attribute. Inert on spans that are not
    /// recording.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.attrs.push((key, value));
        }
    }

    /// The trace context this span recorded under ([`TraceCtx::NONE`]
    /// when the span is inert or untraced).
    pub fn ctx(&self) -> TraceCtx {
        self.ctx.map(|(own, _)| own).unwrap_or(TraceCtx::NONE)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (trace_id, span_id, parent_id) = match self.ctx {
            Some((own, prev)) => {
                CURRENT_CTX.with(|c| c.set(prev));
                (own.trace_id, own.span_id, prev.span_id)
            }
            None => (0, 0, 0),
        };
        if let Some((start_us, started)) = self.start {
            let dur_us = started.elapsed().as_micros() as u64;
            record_event(SpanEvent {
                name: self.name,
                tid: current_tid(),
                start_us,
                dur_us,
                trace_id,
                span_id,
                parent_id,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

/// Start an RAII span; the interval is recorded when the guard drops.
/// Near-free when the recorder is disabled.
///
/// When the calling thread carries a trace context (see [`with_ctx`]) the
/// span joins that trace: it gets a fresh span id, links to the context's
/// span as its parent, and becomes the context for spans nested under it.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None, ctx: None, attrs: Vec::new() };
    }
    let cur = current_ctx();
    let ctx = cur.is_traced().then(|| {
        let own = TraceCtx { trace_id: cur.trace_id, span_id: next_span_id() };
        CURRENT_CTX.with(|c| c.set(own));
        (own, cur)
    });
    Span { name, start: Some((now_us(), Instant::now())), ctx, attrs: Vec::new() }
}

/// The recorder-assigned logical id of the calling thread.
pub fn current_tid() -> u64 {
    LOCAL.with(|(tid, _, _)| *tid)
}

/// Manually open a span. Must be balanced by [`exit`] with the same name
/// on the same thread; prefer [`span`] where scoping allows.
#[inline]
pub fn enter(name: &'static str) {
    if !enabled() {
        return;
    }
    let start = now_us();
    LOCAL.with(|(_, _, stack)| stack.borrow_mut().push((name, start)));
}

/// Close a manually opened span.
///
/// Mismatches are tolerated, never fatal: exiting a name that is deeper on
/// the stack implicitly closes (and records) the frames above it; exiting
/// a name that was never entered records nothing. Every tolerated
/// mismatch bumps the `obs.span_mismatch` counter.
pub fn exit(name: &'static str) {
    if !enabled() {
        return;
    }
    let end = now_us();
    let frames: Option<Vec<(&'static str, u64)>> = LOCAL.with(|(_, _, stack)| {
        let mut stack = stack.borrow_mut();
        let pos = stack.iter().rposition(|(n, _)| *n == name)?;
        Some(stack.drain(pos..).collect())
    });
    match frames {
        None => count("obs.span_mismatch", 1),
        Some(frames) => {
            // frames[0] is the matching frame; everything after it was
            // opened later and is implicitly closed now.
            let mismatched = frames.len().saturating_sub(1) as u64;
            if mismatched > 0 {
                count("obs.span_mismatch", mismatched);
            }
            let tid = current_tid();
            let ctx = current_ctx();
            for (n, start_us) in frames.into_iter().rev() {
                record_event(SpanEvent {
                    name: n,
                    tid,
                    start_us,
                    dur_us: end.saturating_sub(start_us),
                    trace_id: ctx.trace_id,
                    span_id: 0,
                    parent_id: ctx.span_id,
                    attrs: Vec::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    *lock_registry().counters.entry(name).or_insert(0) += delta;
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Power-of-two bucketed histogram: bucket 0 holds value 0, bucket `i`
/// holds `[2^(i-1), 2^i)`. One bucket-boundary table is shared by the
/// tracing recorder, the serve-layer metrics, and the labeled
/// [`registry`] families so quantiles are comparable across layers.
pub const HIST_BUCKETS: usize = 64;

#[derive(Debug, Clone)]
struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Hist {
    fn new() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }

    fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`, clamped.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Record one value into the named histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    lock_registry().hists.entry(name).or_insert_with(Hist::new).record(value);
}

/// Record a duration (in microseconds) into the named histogram.
#[inline]
pub fn observe_duration(name: &'static str, d: Duration) {
    observe(name, d.as_micros() as u64);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Read-only copy of a histogram at snapshot time.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistSnapshot {
    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Exact mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of everything the recorder holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans from all threads, sorted by (tid, start, longest
    /// first) so parents precede their children.
    pub events: Vec<SpanEvent>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Spans discarded because a per-thread buffer hit its cap.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Copy the recorder's current state. Does not clear anything.
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for buf in &reg.bufs {
        let b = buf.lock().unwrap_or_else(|e| e.into_inner());
        events.extend(b.events.iter().cloned());
        dropped += b.dropped;
    }
    events.sort_by(|a, b| {
        (a.tid, a.start_us, std::cmp::Reverse(a.dur_us))
            .cmp(&(b.tid, b.start_us, std::cmp::Reverse(b.dur_us)))
    });
    Snapshot {
        events,
        counters: reg.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        histograms: reg
            .hists
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistSnapshot { buckets: h.buckets.to_vec(), count: h.count, sum: h.sum },
                )
            })
            .collect(),
        dropped_events: dropped,
    }
}

/// Clear all recorded spans, counters, and histograms. Buffers of threads
/// that have exited are unregistered.
pub fn reset() {
    let mut reg = lock_registry();
    for buf in &reg.bufs {
        let mut b = buf.lock().unwrap_or_else(|e| e.into_inner());
        b.events.clear();
        b.dropped = 0;
    }
    // A strong count of 1 means only the registry holds the buffer: its
    // thread is gone and (post-clear) it has nothing left to report.
    reg.bufs.retain(|buf| Arc::strong_count(buf) > 1);
    reg.counters.clear();
    reg.hists.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_index_ranges() {
        // every value maps to a bucket whose upper bound is >= the value
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20, u64::MAX] {
            assert!(bucket_upper_bound(bucket_index(v)) >= v, "value {v}");
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_on_known_distribution() {
        let mut h = Hist::new();
        for v in [1u64, 1, 2, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(v);
        }
        let snap = HistSnapshot { buckets: h.buckets.to_vec(), count: h.count, sum: h.sum };
        // p50 rank = 5 -> within the 100s bucket [64,128)
        assert_eq!(snap.quantile(0.5), Some(127));
        // p100 -> 5000 lives in [4096,8192)
        assert_eq!(snap.quantile(1.0), Some(8191));
        assert_eq!(snap.quantile(0.0), Some(1));
        assert!((snap.mean() - 560.4).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let snap = HistSnapshot { buckets: vec![0; HIST_BUCKETS], count: 0, sum: 0 };
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), 0.0);
    }
}
