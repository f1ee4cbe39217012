//! What one run reports, and the line the driver reads.

use serde::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (ops, passes, calls, set-ups).
    pub samples: u64,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Operations started inside the measured window.
    pub attempted: u64,
    /// ... that errored, were refused, or failed their correctness check.
    pub failed: u64,
    /// Every invariant outside single ops held too (e.g. nothing requeued).
    pub invariants_held: bool,
    /// End-to-end metrics of an untraced run, per-layer ones of a traced.
    pub metrics: Vec<Metric>,
    /// Printed beside them, not part of the result object.
    pub beside: Vec<Metric>,
}

impl Report {
    /// No op failed and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invariants_held
    }

    /// The driver's result object:
    /// `{"correct","attempted","failed","metrics":{name:{"value","unit"}}}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Map(entry))
            })
            .collect();
        let object = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&object).expect("measured values are finite")
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`). One process
/// runs one workload, so this is the workload's peak.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_holds_the_listed_metrics_only() {
        let report = Report {
            attempted: 1000,
            failed: 0,
            invariants_held: true,
            metrics: vec![
                Metric { name: "p50_ms", value: 1.2034, unit: "ms", samples: 1000 },
                Metric { name: "ops_per_s", value: 2500.0, unit: "1/s", samples: 10 },
            ],
            beside: vec![Metric { name: "raw.p50_ms", value: 1.5, unit: "ms", samples: 1000 }],
        };
        let line = report.to_json();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"p50_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"ops_per_s\":{\"value\":2500.0,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_or_a_broken_invariant_is_not_correct() {
        let mut r = Report {
            attempted: 5,
            failed: 1,
            invariants_held: true,
            metrics: Vec::new(),
            beside: Vec::new(),
        };
        assert!(!r.correct());
        r.failed = 0;
        assert!(r.correct());
        r.invariants_held = false;
        assert!(r.correct().eq(&false));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mib() > 1.0);
    }
}
