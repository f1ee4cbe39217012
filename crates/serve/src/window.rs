//! Sliding-window aggregation: a ring of fixed-duration interval buckets.
//!
//! Each bucket covers one `bucket_ms` interval of service time and holds a
//! request count, an error count, and a latency histogram (the shared
//! [`obs::AtomicHistogram`] bucket table). Recording tags the bucket with
//! its interval number; a recorder that lands on a bucket still tagged
//! with a stale interval rotates it (CAS on the tag, then clear), so the
//! ring needs no background thread. Reports aggregate the buckets whose
//! interval falls inside the requested window, which yields windowed QPS,
//! error rate, and p50/p95/p99 over e.g. the last 1s/10s/60s.
//!
//! Time is passed in explicitly as a [`Duration`] since service start:
//! the service passes `started.elapsed()`, tests drive time by hand and
//! get fully deterministic behavior.
//!
//! Accuracy notes, deliberate trade-offs for a lock-free hot path:
//! a thread that reads the interval number, stalls across a rotation, and
//! then records, smears one observation into the successor interval; and a
//! report taken mid-interval sees a partially filled leading bucket. Both
//! are bounded by one bucket width.

use obs::{AtomicHistogram, HistSnapshot, HIST_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Width of one interval bucket of the service's ring, in milliseconds.
pub const WINDOW_BUCKET_MS: u64 = 250;
/// Interval buckets in the service's ring: 250 ms × 256 = 64 s of history,
/// enough to answer the widest exported window (60 s).
pub const WINDOW_BUCKETS: usize = 256;

/// Tag value for a bucket that has never been written.
const EMPTY: u64 = u64::MAX;

#[derive(Debug)]
struct Bucket {
    /// Interval number this bucket currently accumulates (`EMPTY` = never
    /// written).
    interval: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    latency: AtomicHistogram,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            interval: AtomicU64::new(EMPTY),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: AtomicHistogram::default(),
        }
    }
}

/// Ring of interval buckets; see the module docs.
#[derive(Debug)]
pub struct WindowRing {
    bucket_ms: u64,
    buckets: Vec<Bucket>,
}

impl WindowRing {
    /// A ring of `buckets` intervals of `bucket_ms` each. The ring covers
    /// `bucket_ms * buckets` milliseconds of history; longer windows
    /// saturate at that coverage.
    pub fn new(bucket_ms: u64, buckets: usize) -> Self {
        assert!(bucket_ms >= 1 && buckets >= 1, "degenerate window ring");
        WindowRing { bucket_ms, buckets: (0..buckets).map(|_| Bucket::new()).collect() }
    }

    /// Width of one interval bucket.
    pub fn bucket_width(&self) -> Duration {
        Duration::from_millis(self.bucket_ms)
    }

    /// Total history the ring can cover.
    pub fn coverage(&self) -> Duration {
        Duration::from_millis(self.bucket_ms * self.buckets.len() as u64)
    }

    fn interval_of(&self, now: Duration) -> u64 {
        now.as_millis() as u64 / self.bucket_ms
    }

    /// Rotate the slot for `interval` if it still holds an older interval,
    /// then return it.
    fn bucket_for(&self, interval: u64) -> &Bucket {
        let slot = &self.buckets[(interval % self.buckets.len() as u64) as usize];
        let tag = slot.interval.load(Ordering::Acquire);
        if tag != interval
            && slot
                .interval
                .compare_exchange(tag, interval, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            // The CAS winner clears; losers either see the new tag (and
            // record into the fresh interval) or raced another rotation.
            slot.requests.store(0, Ordering::Relaxed);
            slot.errors.store(0, Ordering::Relaxed);
            slot.latency.clear();
        }
        slot
    }

    /// Record one finished request at service-relative time `now`.
    pub fn record(&self, now: Duration, latency_us: u64, error: bool) {
        let bucket = self.bucket_for(self.interval_of(now));
        bucket.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            bucket.errors.fetch_add(1, Ordering::Relaxed);
        }
        bucket.latency.record(latency_us);
    }

    /// One pass over the ring: (requests, errors, latency histogram) of
    /// the buckets inside the (clamped) window, plus the clamped window.
    fn scan(&self, now: Duration, window: Duration) -> (u64, u64, HistSnapshot, Duration) {
        let window = window.clamp(self.bucket_width(), self.coverage());
        let current = self.interval_of(now);
        let span = (window.as_millis() as u64).div_ceil(self.bucket_ms);
        let oldest = current.saturating_sub(span.saturating_sub(1));
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut hist = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for slot in &self.buckets {
            let tag = slot.interval.load(Ordering::Acquire);
            if tag == EMPTY || tag < oldest || tag > current {
                continue;
            }
            requests += slot.requests.load(Ordering::Relaxed);
            errors += slot.errors.load(Ordering::Relaxed);
            slot.latency.accumulate(&mut hist, &mut sum);
        }
        let snap = HistSnapshot { buckets: hist.to_vec(), count: hist.iter().sum(), sum };
        (requests, errors, snap, window)
    }

    /// The windowed latency histogram alone — what a scraper exports as
    /// the windowed counterpart of the cumulative per-method histograms.
    pub fn histogram(&self, now: Duration, window: Duration) -> HistSnapshot {
        self.scan(now, window).2
    }

    /// Aggregate the last `window` of history as of `now`. Windows longer
    /// than the ring's coverage are clamped to it.
    pub fn report(&self, now: Duration, window: Duration) -> WindowReport {
        let (requests, errors, snap, window) = self.scan(now, window);
        let secs = window.as_secs_f64();
        WindowReport {
            window,
            requests,
            errors,
            qps: requests as f64 / secs,
            error_rate: if requests == 0 { 0.0 } else { errors as f64 / requests as f64 },
            p50: snap.quantile(0.50).map(Duration::from_micros),
            p95: snap.quantile(0.95).map(Duration::from_micros),
            p99: snap.quantile(0.99).map(Duration::from_micros),
        }
    }
}

/// Aggregate over one sliding window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// The (possibly clamped) window this report covers.
    pub window: Duration,
    /// Requests finished inside the window.
    pub requests: u64,
    /// Of those, how many resolved as errors (deadline drops, refusals,
    /// execution failures).
    pub errors: u64,
    /// `requests / window`.
    pub qps: f64,
    /// `errors / requests` (0 when idle).
    pub error_rate: f64,
    /// Windowed latency quantiles (None when no request finished).
    pub p50: Option<Duration>,
    /// 95th percentile.
    pub p95: Option<Duration>,
    /// 99th percentile.
    pub p99: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn report_covers_only_the_requested_window() {
        let ring = WindowRing::new(250, 256);
        // 5 requests in the first interval, 3 in interval 40 (10s later)
        for _ in 0..5 {
            ring.record(Duration::ZERO, 100, false);
        }
        for _ in 0..3 {
            ring.record(10_000 * MS, 200, true);
        }
        let now = 10_100 * MS;
        let last_1s = ring.report(now, Duration::from_secs(1));
        assert_eq!(last_1s.requests, 3);
        assert_eq!(last_1s.errors, 3);
        assert_eq!(last_1s.error_rate, 1.0);
        assert_eq!(last_1s.qps, 3.0);
        let last_60s = ring.report(now, Duration::from_secs(60));
        assert_eq!(last_60s.requests, 8);
        assert_eq!(last_60s.errors, 3);
        assert!((last_60s.error_rate - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn old_intervals_rotate_out() {
        let ring = WindowRing::new(100, 4); // 400ms of coverage
        ring.record(Duration::ZERO, 10, false);
        // far in the future the slot is reused and the old count is gone
        ring.record(100_000 * MS, 20, false);
        let report = ring.report(100_050 * MS, Duration::from_secs(60));
        assert_eq!(report.requests, 1, "stale interval must not leak into the window");
        assert_eq!(report.p50, ring.report(100_050 * MS, Duration::from_millis(400)).p50);
    }

    #[test]
    fn windowed_quantiles_track_recent_latency_only() {
        let ring = WindowRing::new(250, 256);
        for _ in 0..100 {
            ring.record(Duration::ZERO, 50, false); // old: fast
        }
        for _ in 0..100 {
            ring.record(30_000 * MS, 40_000, false); // recent: slow
        }
        let now = 30_200 * MS;
        let recent = ring.report(now, Duration::from_secs(10));
        // p50 of the recent window reflects only the slow requests:
        // 40000us lives in [32768, 65536)
        assert_eq!(recent.p50, Some(Duration::from_micros(65_535)));
        let all = ring.report(now, Duration::from_secs(60));
        assert_eq!(all.requests, 200);
        // half the observations are fast, so the p50 bucket drops
        assert!(all.p50.unwrap() < recent.p50.unwrap());
    }

    #[test]
    fn window_is_clamped_to_ring_coverage() {
        let ring = WindowRing::new(100, 10); // 1s coverage
        ring.record(Duration::ZERO, 10, false);
        let r = ring.report(500 * MS, Duration::from_secs(3600));
        assert_eq!(r.window, Duration::from_secs(1));
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn empty_ring_reports_zeroes() {
        let ring = WindowRing::new(250, 16);
        let r = ring.report(Duration::from_secs(5), Duration::from_secs(1));
        assert_eq!(r.requests, 0);
        assert_eq!(r.qps, 0.0);
        assert_eq!(r.error_rate, 0.0);
        assert_eq!(r.p50, None);
    }
}
