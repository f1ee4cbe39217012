//! The per-layer metrics of a traced run: their names and units (the same
//! list `BENCHMARK.json` carries, test-pinned), and how spans become them.
//!
//! Every traced run reports every metric; one that a workload's ops never
//! reach reads 0, which is itself the bypass evidence (`sql_exec` makes
//! zero `modelzoo` calls).

use crate::report::Metric;
use crate::stages::{names, ExecProfile, GateCounts, Pipeline, RequestSet};
use crate::stats;
use crate::trace::{self, Recorder};
use std::collections::BTreeMap;
use std::path::Path;

/// `(name, unit)` of every per-layer metric, in reporting order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.spider_gen_ms", "ms"),
    ("datagen.bird_gen_ms", "ms"),
    ("nl2sql360.context_build_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("setup.boot_ms", "ms"),
    ("nl2sql360.parallel_speedup", "ratio"),
    ("nl2sql360.overhead_us", "us"),
    ("modelzoo.translate_us", "us"),
    ("modelzoo.translate_mean_us", "us"),
    ("modelzoo.few_shot_select_us", "us"),
    ("modelzoo.refused_share", "fraction"),
    ("sqlkit.parse_us", "us"),
    ("sqlkit.parse_mean_us", "us"),
    ("sqlkit.normalize_key_us", "us"),
    ("sqlkit.normalize_key_mean_us", "us"),
    ("sqlkit.exact_match_us", "us"),
    ("sqlkit.exact_match_mean_us", "us"),
    ("sqlcheck.analyze_us", "us"),
    ("sqlcheck.analyze_mean_us", "us"),
    ("sqlcheck.canonical_key_us", "us"),
    ("sqlcheck.canonical_key_mean_us", "us"),
    ("sqlcheck.reject_share", "fraction"),
    ("minidb.compile_us", "us"),
    ("minidb.compile_mean_us", "us"),
    ("minidb.execute_us", "us"),
    ("minidb.execute_mean_us", "us"),
    ("minidb.results_equivalent_us", "us"),
    ("minidb.results_equivalent_mean_us", "us"),
    ("minidb.fallback_share", "fraction"),
    ("minidb.rowwise_share", "fraction"),
    ("minidb.fallback_time_share", "fraction"),
    ("minidb.work_units", "count"),
    ("ex_total", "count"),
    ("em_total", "count"),
    ("serve.dispatch_us", "us"),
    ("serve.cache_hit_share", "fraction"),
    ("serve.mean_batch", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.overloaded", "count"),
    ("serve.tracing_overhead_pct", "%"),
    ("serve.http_probe_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.http_body_bytes", "bytes"),
    ("serve.proto_frame_us", "us"),
    ("serve.proto_frame_bytes", "bytes"),
    ("cluster.hop_us", "us"),
    ("cluster.qps_ratio", "ratio"),
    ("cluster.forwarded", "count"),
    ("cluster.requeued", "count"),
    ("cluster.reaped", "count"),
    ("process.peak_rss_mb", "MiB"),
    ("trace_overhead_pct", "%"),
    ("trace.unattributed_share", "fraction"),
    ("trace.clipped_share", "fraction"),
];

/// Replayed stages whose span durations become `<span>_us` (median) and
/// `<span>_mean_us`.
const STAGES: &[&str] = &[
    names::TRANSLATE,
    names::PARSE,
    names::NORMALIZE_KEY,
    names::EXACT_MATCH,
    names::ANALYZE,
    names::CANONICAL_KEY,
    names::COMPILE,
    names::EXECUTE,
    names::RESULTS_EQUIVALENT,
];

/// Median of nanosecond samples, in microseconds; 0 for none.
pub fn p50_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, 50) as f64 / 1e3
}

/// Per-layer values collected during a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Nothing measured yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `name`, backed by `samples` observations.
    ///
    /// # Panics
    /// Panics on a name [`PER_LAYER`] does not list.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let (listed, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("not a per-layer metric: {name}"));
        self.values.insert(listed, (value, samples));
    }

    /// Median of `ns` as microseconds into `name`.
    pub fn set_p50_us(&mut self, name: &str, ns: &[u64]) {
        self.set(name, p50_us(ns), ns.len() as u64);
    }

    /// The set-up parts.
    pub fn setup(&mut self, kind: datagen::CorpusKind, setup: &crate::setup::SetupTime) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let gen = match kind {
            datagen::CorpusKind::Spider => "datagen.spider_gen_ms",
            datagen::CorpusKind::Bird => "datagen.bird_gen_ms",
        };
        self.set(gen, ms(setup.gen), 1);
        self.set("nl2sql360.context_build_ms", ms(setup.context), 1);
        self.set("setup.reference_ms", ms(setup.reference), 1);
        self.set("setup.boot_ms", ms(setup.boot), 1);
    }

    /// Exact execution counts and the fallback's share of execute time.
    pub fn exec_profile(&mut self, p: &ExecProfile) {
        self.set("minidb.fallback_share", p.share(p.fallback), p.queries);
        self.set("minidb.rowwise_share", p.share(p.rowwise), p.queries);
        let time_share =
            if p.execute_ns == 0 { 0.0 } else { p.fallback_ns as f64 / p.execute_ns as f64 };
        self.set("minidb.fallback_time_share", time_share, p.queries);
        self.set("minidb.work_units", p.work_units as f64, p.queries);
    }

    /// What the traced replay cost: p50 of the whole call with the stages
    /// replayed after each op against the same ops without.
    pub fn trace_overhead(&mut self, untraced_ns: &[u64], traced_ns: &[u64]) {
        let pct = (p50_us(traced_ns) / p50_us(untraced_ns) - 1.0) * 100.0;
        self.set("trace_overhead_pct", pct, traced_ns.len() as u64);
    }

    /// The service's own counters.
    pub fn service(&mut self, m: &serve::MetricsSnapshot) {
        let us = |d: Option<std::time::Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        self.set("serve.cache_hit_share", m.cache_hit_rate, m.cache_hits + m.cache_misses);
        self.set("serve.mean_batch", m.mean_batch_size, m.completed);
        self.set("serve.queue_wait_p50_us", us(m.queue_p50), m.completed);
        self.set("serve.exec_p50_us", us(m.exec_p50), m.completed);
        self.set("serve.overloaded", m.rejected_overloaded as f64, m.submitted);
    }

    /// Exact counts over NL requests `indices` of `set`, independent of
    /// cache state: executor tiers and work units of their predictions,
    /// the two gates before execution, EX/EM totals.
    pub fn nl_counts(&mut self, pipeline: &Pipeline<'_>, set: &RequestSet, indices: &[usize]) {
        let mut profile = ExecProfile::default();
        let mut gates = GateCounts::default();
        for &i in indices {
            pipeline.profile(set.ops[i], &mut profile, &mut gates);
        }
        self.exec_profile(&profile);
        self.gates(&gates);
        let (ex_total, em_total) = set.ex_em_totals(indices.iter().copied());
        self.set("ex_total", ex_total as f64, indices.len() as u64);
        self.set("em_total", em_total as f64, indices.len() as u64);
    }

    /// Refusals and static rejections, as shares of what reached each gate.
    pub fn gates(&mut self, g: &GateCounts) {
        let share = |part: u64, of: u64| if of == 0 { 0.0 } else { part as f64 / of as f64 };
        self.set("modelzoo.refused_share", share(g.refused, g.translated), g.translated);
        self.set("sqlcheck.reject_share", share(g.rejected, g.analyzed), g.analyzed);
    }

    /// Everything that derives from the spans alone: stage timings, the
    /// share table's hygiene rows. Prints the share table and writes
    /// `trace-<workload>.jsonl` under `out_dir`.
    pub fn spans(&mut self, workload: &str, rec: &Recorder, out_dir: &Path) -> std::io::Result<()> {
        for stage in STAGES {
            let ns = rec.durations(stage);
            self.set_p50_us(&format!("{stage}_us"), &ns);
            self.set(&format!("{stage}_mean_us"), stats::mean(&ns) / 1e3, ns.len() as u64);
        }
        let table = trace::share_table(rec.spans());
        let op_ns: u64 =
            rec.spans().iter().filter(|s| s.parent == 0).map(trace::Span::dur_ns).sum();
        println!(
            "{workload} share table ({} spans; self time by layer, Σ share = 1):",
            rec.spans().len()
        );
        println!(
            "  {:<28} {:>7} {:>12} {:>12} {:>7}",
            "span", "calls", "self_p50_us", "self_mean_us", "share"
        );
        for row in &table {
            println!(
                "  {:<28} {:>7} {:>12.2} {:>12.2} {:>7.4}",
                row.name,
                row.calls,
                row.self_p50_ns as f64 / 1e3,
                row.self_mean_ns / 1e3,
                row.share
            );
        }
        let unattributed =
            table.iter().find(|r| r.name == trace::UNATTRIBUTED).map_or(0.0, |r| r.share);
        let ops = rec.spans().iter().filter(|s| s.parent == 0).count() as u64;
        self.set("trace.unattributed_share", unattributed, ops);
        self.set("trace.clipped_share", rec.clipped_ns() as f64 / op_ns.max(1) as f64, ops);

        std::fs::create_dir_all(out_dir)?;
        let file = std::fs::File::create(out_dir.join(format!("trace-{workload}.jsonl")))?;
        rec.write_jsonl(&mut std::io::BufWriter::new(file))
    }

    /// Every listed metric, unmeasured ones as 0. The traced process's
    /// peak resident set is read here, as the run ends.
    pub fn into_metrics(mut self) -> Vec<Metric> {
        self.set("process.peak_rss_mb", crate::report::peak_rss_mib(), 1);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric { name, value, unit, samples }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_reported_and_unknown_names_are_refused() {
        let mut layers = Layers::new();
        layers.set("cluster.hop_us", 345.0, 512);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let hop = metrics.iter().find(|m| m.name == "cluster.hop_us").unwrap();
        assert_eq!((hop.value, hop.unit, hop.samples), (345.0, "us", 512));
        let measured = ["cluster.hop_us", "process.peak_rss_mb"];
        assert!(metrics.iter().filter(|m| !measured.contains(&m.name)).all(|m| m.value == 0.0));
        assert!(std::panic::catch_unwind(|| Layers::new().set("nope", 1.0, 1)).is_err());
    }

    #[test]
    fn every_stage_has_its_two_timing_metrics() {
        for stage in STAGES {
            for suffix in ["_us", "_mean_us"] {
                let name = format!("{stage}{suffix}");
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} not listed");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let v: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let serde::Value::Array(listed) = v.get("per_layer").expect("per_layer") else {
            panic!("per_layer is not an array");
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad per_layer entry: {other:?}"),
            })
            .collect();
        let ours: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, ours);
    }
}
