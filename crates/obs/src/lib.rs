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
//! - **Spans** — anonymous timings: a static name, the recording thread
//!   and a wall-clock interval. [`span`] returns an RAII guard. Request
//!   identity (trace ids, parent links, attributes) is not the recorder's
//!   business; it lives in serve's per-request trace store.
//! - **Counters** — named monotonic `u64`s via [`count`].
//! - **Histograms** — power-of-two bucketed value distributions via
//!   [`observe`] / [`observe_duration`], recorded into the same
//!   [`AtomicHistogram`] the serve-layer metrics and the registry use, so
//!   quantiles line up across layers.
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

/// One completed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Recorder-assigned logical thread id (stable per OS thread).
    pub tid: u64,
    /// Microseconds since the recorder epoch.
    pub start_us: u64,
    pub dur_us: u64,
}

#[derive(Debug, Default)]
struct ThreadBuf {
    events: Vec<SpanEvent>,
    dropped: u64,
}

struct RecorderState {
    bufs: Vec<Arc<Mutex<ThreadBuf>>>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, AtomicHistogram>,
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

thread_local! {
    /// (logical tid, shared buffer registered with the global registry)
    static LOCAL: (u64, Arc<Mutex<ThreadBuf>>) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(Mutex::new(ThreadBuf::default()));
        lock_registry().bufs.push(Arc::clone(&buf));
        (tid, buf)
    };
}

fn record_event(ev: SpanEvent) {
    LOCAL.with(|(_, buf)| {
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
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.start {
            record_event(SpanEvent {
                name: self.name,
                tid: current_tid(),
                start_us: started.saturating_duration_since(epoch()).as_micros() as u64,
                dur_us: started.elapsed().as_micros() as u64,
            });
        }
    }
}

/// Start an RAII span; the interval is recorded when the guard drops.
/// Near-free when the recorder is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span { name, start: enabled().then(Instant::now) }
}

/// The recorder-assigned logical id of the calling thread.
pub fn current_tid() -> u64 {
    LOCAL.with(|(tid, _)| *tid)
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
    lock_registry().hists.entry(name).or_default().record(value);
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
        histograms: reg.hists.iter().map(|(k, h)| (k.to_string(), h.snapshot())).collect(),
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
        let h = AtomicHistogram::default();
        for v in [1u64, 1, 2, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(v);
        }
        let snap = h.snapshot();
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
