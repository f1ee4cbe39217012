//! The public point-in-time view of the service's accounting. There is
//! no separate store behind it: [`crate::ServiceHandle::metrics`] derives
//! a [`MetricsSnapshot`] from the same registry cells `/metrics` exports
//! (see `telemetry.rs`), so a count read here and the same count scraped
//! there cannot disagree. Latencies come from [`obs::AtomicHistogram`]s
//! over the crate-wide bucket table, so they land in the same bucket too.

use std::time::Duration;

/// Point-in-time metrics view.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Successful responses.
    pub completed: u64,
    /// Admission rejections.
    pub rejected_overloaded: u64,
    /// Deadline drops.
    pub deadline_exceeded: u64,
    /// Other errors.
    pub failed: u64,
    /// Statically-invalid SQL rejections (subset of `failed`).
    pub static_rejected: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Mean same-method batch size.
    pub mean_batch_size: f64,
    /// Median latency (None before any completion).
    pub p50: Option<Duration>,
    /// 95th percentile latency.
    pub p95: Option<Duration>,
    /// 99th percentile latency.
    pub p99: Option<Duration>,
    /// Median queue wait (enqueue → worker pickup).
    pub queue_p50: Option<Duration>,
    /// 95th percentile queue wait.
    pub queue_p95: Option<Duration>,
    /// 99th percentile queue wait.
    pub queue_p99: Option<Duration>,
    /// Median execution time (pickup → response).
    pub exec_p50: Option<Duration>,
    /// 95th percentile execution time.
    pub exec_p95: Option<Duration>,
    /// 99th percentile execution time.
    pub exec_p99: Option<Duration>,
    /// Execution-failure counts by kind (only kinds seen at least once) —
    /// previously tallied internally but dropped from the snapshot, which
    /// lost the failure *mode* breakdown the per-request
    /// [`crate::QueryResponse::exec_failure`] field records.
    pub exec_failures: Vec<(nl2sql360::ExecFailureKind, u64)>,
}

impl MetricsSnapshot {
    /// Requests that entered the system but got no reply of any kind.
    /// Zero once the service has drained.
    ///
    /// Counters are loaded one by one with relaxed ordering while workers
    /// keep recording, so a snapshot can read `submitted` *before* a
    /// request is admitted yet read `completed` *after* that same request
    /// finished — making the raw difference transiently negative. That
    /// transient says nothing about lost requests, so it is clamped to 0;
    /// a genuinely lost request shows up as a *stable* positive value
    /// after drain.
    pub fn lost(&self) -> i64 {
        (self.submitted as i64
            - self.completed as i64
            - self.deadline_exceeded as i64
            - self.failed as i64)
            .max(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Completion, Telemetry, Work};
    use obs::AtomicHistogram;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = AtomicHistogram::default();
        for us in [10u64, 20, 30, 40, 50, 1000, 2000, 4000, 100_000, 200_000] {
            h.record_duration(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_duration(0.5).unwrap();
        assert!(p50 >= Duration::from_micros(32) && p50 <= Duration::from_micros(128), "{p50:?}");
        let p99 = h.quantile_duration(0.99).unwrap();
        assert!(p99 >= Duration::from_micros(100_000), "{p99:?}");
        assert!(h.quantile_duration(0.0).is_some());
        assert_eq!(AtomicHistogram::default().quantile_duration(0.5), None);
    }

    #[test]
    fn snapshot_derives_rates() {
        let t = Telemetry::new(&["A", "B"]);
        for (method, cache_hit) in [(0, true), (1, false)] {
            t.admitted();
            let latency = Duration::from_micros(100);
            let reply = crate::QueryResponse {
                ex: true,
                em: true,
                pred_sql: String::new(),
                pred_work: Some(1),
                exec_failure: None,
                cache_hit,
                batch_size: 2,
                latency,
                trace_id: String::new(),
            };
            let enqueued = std::time::Instant::now();
            let work = Work {
                method,
                db_id: "db",
                batch_size: 2,
                sql_hash: 0,
                enqueued,
                started: enqueued,
                stages: Default::default(),
                finished: enqueued + latency,
                trace: None,
            };
            t.record(&Completion { reply: Ok(reply), work: Some(work) }, enqueued);
        }
        t.batch(2);
        let s = t.snapshot();
        assert_eq!((s.submitted, s.completed), (2, 2), "completed sums over methods");
        assert_eq!(t.completed(), 2);
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.lost(), 0);
    }

    #[test]
    fn lost_is_clamped_against_torn_reads() {
        // A snapshot whose counter loads interleaved badly with recording:
        // completed already includes a request submitted "after" the
        // submitted load. The raw difference is negative; lost() is not.
        let s = MetricsSnapshot {
            submitted: 5,
            completed: 6,
            rejected_overloaded: 0,
            deadline_exceeded: 0,
            failed: 0,
            static_rejected: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_rate: 0.0,
            mean_batch_size: 0.0,
            p50: None,
            p95: None,
            p99: None,
            queue_p50: None,
            queue_p95: None,
            queue_p99: None,
            exec_p50: None,
            exec_p95: None,
            exec_p99: None,
            exec_failures: Vec::new(),
        };
        assert_eq!(s.lost(), 0);
    }
}
