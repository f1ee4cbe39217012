//! Bounded slow-query log: the top-K slowest requests, with rate-limited
//! admission so a latency storm cannot turn the log's mutex into a
//! service-wide contention point.
//!
//! Two gates run before the lock is ever touched:
//!
//! 1. **Latency floor** — once the log holds K entries, an atomic floor
//!    tracks the slowest entry that would be evicted; requests at or below
//!    it skip admission without taking the lock. Under steady load this is
//!    the common path: almost every request is faster than the current
//!    K-th slowest.
//! 2. **Admission rate limit** — at most `rate_per_sec` lock-taking
//!    admission attempts per wall-clock second (tracked with the same
//!    CAS-tagged interval trick as the window ring). A cold log or a
//!    latency collapse where *everything* beats the floor stays bounded.
//!
//! Entries carry what an operator needs to chase a slow query without
//! logging raw SQL text: a stable hash of the normalized SQL, the method,
//! the database, the queue-wait vs execution split, and the cache-hit
//! flag. Time is service-relative milliseconds, passed in explicitly, so
//! tests are deterministic.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Entries the service's slow-query log keeps (top-K by latency).
pub const SLOW_LOG_K: usize = 32;
/// Lock-taking slow-log admissions the service allows per second.
pub const SLOW_LOG_RATE_PER_SEC: u64 = 64;

/// One admitted slow query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQueryEntry {
    /// FNV-1a 64-bit hash of the normalized predicted SQL — stable across
    /// runs, groups repeats of the same query without logging its text.
    pub sql_hash: u64,
    /// Method that produced the query.
    pub method: String,
    /// Database the query ran against.
    pub db_id: String,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
    /// Of that, time spent queued before a worker picked it up.
    pub queue_wait_us: u64,
    /// Of that, the worker's own translate+execute+compare time.
    pub exec_us: u64,
    /// Whether execution came from the result cache.
    pub cache_hit: bool,
    /// Service-relative completion time in milliseconds.
    pub at_ms: u64,
    /// External (hex) trace id of the request's span tree, linking this
    /// entry to `GET /v1/traces/<id>`; empty when tracing was off.
    /// Defaulted so entries logged before tracing still deserialize.
    #[serde(default)]
    pub trace_id: String,
}

/// Bounded top-K slow-query log; see the module docs.
#[derive(Debug)]
pub struct SlowLog {
    k: usize,
    rate_per_sec: u64,
    /// Latency (µs) a request must *exceed* to attempt admission once the
    /// log is full; 0 while it is not.
    floor_us: AtomicU64,
    /// Wall-clock second of the current rate-limit interval.
    rate_second: AtomicU64,
    /// Lock-taking admissions attempted in the current interval.
    rate_count: AtomicU64,
    /// Admissions skipped by the rate limiter (telemetry).
    rate_limited: AtomicU64,
    entries: Mutex<Vec<SlowQueryEntry>>,
}

impl SlowLog {
    /// A log bounded at `k` entries admitting at most `rate_per_sec`
    /// lock-taking insertions per second. `k == 0` disables the log.
    pub fn new(k: usize, rate_per_sec: u64) -> Self {
        SlowLog {
            k,
            rate_per_sec: rate_per_sec.max(1),
            floor_us: AtomicU64::new(0),
            rate_second: AtomicU64::new(u64::MAX),
            rate_count: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Configured bound K.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Admissions skipped by the rate limiter so far.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    /// Offer a finished request at service-relative time `now_ms`.
    /// Returns whether it was admitted into the top-K.
    pub fn offer(&self, now_ms: u64, entry: SlowQueryEntry) -> bool {
        if self.k == 0 {
            return false;
        }
        // Gate 1: beaten by the current K-th slowest → skip, lock-free.
        if entry.latency_us <= self.floor_us.load(Ordering::Relaxed) {
            return false;
        }
        // Gate 2: rate limit lock-taking admissions per second.
        let second = now_ms / 1000;
        let tag = self.rate_second.load(Ordering::Relaxed);
        if tag != second
            && self
                .rate_second
                .compare_exchange(tag, second, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.rate_count.store(0, Ordering::Relaxed);
        }
        if self.rate_count.fetch_add(1, Ordering::Relaxed) >= self.rate_per_sec {
            self.rate_limited.fetch_add(1, Ordering::Relaxed);
            return false;
        }

        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the lock: the floor may have risen since gate 1.
        if entries.len() >= self.k {
            let (min_idx, min_latency) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.latency_us)
                .map(|(i, e)| (i, e.latency_us))
                .expect("full log is non-empty");
            if entry.latency_us <= min_latency {
                return false;
            }
            entries.swap_remove(min_idx);
        }
        entries.push(entry);
        if entries.len() >= self.k {
            let min = entries.iter().map(|e| e.latency_us).min().unwrap_or(0);
            self.floor_us.store(min, Ordering::Relaxed);
        }
        true
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot sorted by latency, slowest first (ties: most recent
    /// first, then by hash, so the order is deterministic).
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        let mut out = self.entries.lock().unwrap_or_else(|e| e.into_inner()).clone();
        out.sort_by(|a, b| {
            b.latency_us
                .cmp(&a.latency_us)
                .then(b.at_ms.cmp(&a.at_ms))
                .then(b.sql_hash.cmp(&a.sql_hash))
        });
        out
    }
}

// The slow log's SQL hash is the shared key hash (see `crate::hash`):
// re-exported here because this is where it historically lived, and the
// slow-log entry docs promise "FNV-1a of the normalized SQL".
pub use crate::hash::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(latency_us: u64, at_ms: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            sql_hash: fnv1a64(&format!("q{latency_us}")),
            method: "M".into(),
            db_id: "db".into(),
            latency_us,
            queue_wait_us: latency_us / 4,
            exec_us: latency_us - latency_us / 4,
            cache_hit: false,
            at_ms,
            trace_id: String::new(),
        }
    }

    #[test]
    fn keeps_the_top_k_by_latency() {
        let log = SlowLog::new(3, 1_000_000);
        for (i, lat) in [50u64, 10, 70, 30, 90, 20, 60].into_iter().enumerate() {
            log.offer(i as u64, entry(lat, i as u64));
        }
        let got: Vec<u64> = log.entries().iter().map(|e| e.latency_us).collect();
        assert_eq!(got, vec![90, 70, 60]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn floor_rejects_fast_queries_without_locking() {
        let log = SlowLog::new(2, 1_000_000);
        assert!(log.offer(0, entry(100, 0)));
        assert!(log.offer(1, entry(200, 1)));
        // floor is now 100: anything at or below skips
        assert!(!log.offer(2, entry(100, 2)));
        assert!(!log.offer(3, entry(50, 3)));
        assert!(log.offer(4, entry(150, 4)));
        let got: Vec<u64> = log.entries().iter().map(|e| e.latency_us).collect();
        assert_eq!(got, vec![200, 150]);
    }

    #[test]
    fn rate_limiter_caps_admissions_per_second() {
        let log = SlowLog::new(1000, 4);
        let mut admitted = 0;
        for i in 0..100u64 {
            // same wall-clock second, strictly rising latency so the floor
            // never rejects
            if log.offer(500, entry(1000 + i, 500)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4, "only rate_per_sec admissions in one second");
        assert_eq!(log.rate_limited(), 96);
        // the next second opens a fresh budget
        assert!(log.offer(1500, entry(5000, 1500)));
    }

    #[test]
    fn zero_k_disables_the_log() {
        let log = SlowLog::new(0, 100);
        assert!(!log.offer(0, entry(1_000_000, 0)));
        assert!(log.is_empty());
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64("SELECT 1"), fnv1a64("SELECT 2"));
        assert_eq!(fnv1a64("SELECT 1"), fnv1a64("SELECT 1"));
    }
}
