//! The whole benchmark in one command: every workload untraced then
//! traced, each run a child process of its own (so memory readings are
//! the workload's), run one at a time. Workload names, run length and the
//! regression bounds come from `BENCHMARK.json`, the one place they are
//! written down.

use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// Per-layer metrics that are pure functions of the inputs: two runs with
/// one seed must report them identically.
pub const EXACT: [&str; 6] = [
    "minidb.work_units",
    "minidb.fallback_share",
    "minidb.rowwise_share",
    "ex_total",
    "em_total",
    "serve.proto_frame_bytes",
];

/// What `BENCHMARK.json` fixes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Measured seconds of one run.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// `(name, lower is better, bound)` of every end-to-end metric.
    pub end_to_end: Vec<(String, bool, f64)>,
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a string")),
    }
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Int(n)) => Ok(*n as f64),
        Some(Value::Float(f)) => Ok(*f),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a number")),
    }
}

fn array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
    }
}

impl Spec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: number(&v, "run_seconds")?,
            workloads: array(&v, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: array(&v, "end_to_end")?
                .iter()
                .map(|m| {
                    Ok((string(m, "name")?, string(m, "better")? == "lower", number(m, "bound")?))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// What the suite was asked for.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed handed to every run.
    pub seed: u64,
    /// Only this workload.
    pub workload: Option<String>,
    /// One second per run, one set-up, a 64-op replay.
    pub quick: bool,
    /// Full sets to run and compare.
    pub repeat: usize,
}

/// One child run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer metrics) or not (end-to-end).
    pub traced: bool,
    /// The child's `correct`.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Read a child run's result line back.
    fn parse(workload: &str, traced: bool, line: &str) -> Option<RunResult> {
        let v: Value = serde_json::from_str(line).ok()?;
        let int = |key: &str| match v.get(key)? {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        };
        let metrics = v
            .get("metrics")?
            .as_map()?
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value")? {
                    Value::Float(f) => *f,
                    Value::Int(n) => *n as f64,
                    _ => return None,
                };
                let Value::Str(unit) = m.get("unit")? else { return None };
                Some((name.clone(), value, unit.clone()))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            workload: workload.to_string(),
            traced,
            correct: matches!(v.get("correct")?, Value::Bool(true)),
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
        })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == metric).map(|&(_, v, _)| v)
    }
}

fn run_child(
    workload: &str,
    traced: bool,
    seconds: f64,
    args: &SuiteArgs,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: cannot start the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    RunResult::parse(workload, traced, last)
        .ok_or_else(|| format!("{workload}: run exited with {} and no result line", out.status))
}

/// A disagreement between two sets of the same build.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Value in the first set.
    pub first: f64,
    /// Value in the second set.
    pub second: f64,
    /// Allowed relative difference; 0 for an exact-count metric.
    pub bound: f64,
}

/// Compare two sets: every end-to-end metric within its bound (relative
/// to the first set, either direction), every exact-count metric equal.
/// Prints one line per comparison; returns those that fail.
pub fn compare(spec: &Spec, first: &[RunResult], second: &[RunResult]) -> Vec<Disagreement> {
    let mut out = Vec::new();
    for a in first {
        let Some(b) = second.iter().find(|b| b.workload == a.workload && b.traced == a.traced)
        else {
            continue;
        };
        let checks: Vec<(&str, f64)> = if a.traced {
            EXACT.iter().map(|&m| (m, 0.0)).collect()
        } else {
            spec.end_to_end.iter().map(|(m, _, bound)| (m.as_str(), *bound)).collect()
        };
        for (metric, bound) in checks {
            let (Some(x), Some(y)) = (a.value(metric), b.value(metric)) else { continue };
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs().max(f64::MIN_POSITIVE) };
            let ok = diff <= bound;
            println!(
                "repeat {} {metric} {x} {y} diff={:.4} bound={bound} {}",
                a.workload,
                diff,
                if ok { "ok" } else { "EXCEEDED" }
            );
            if !ok {
                out.push(Disagreement {
                    workload: a.workload.clone(),
                    metric: metric.to_string(),
                    first: x,
                    second: y,
                    bound,
                });
            }
        }
    }
    out
}

fn results_json(args: &SuiteArgs, seconds: f64, sets: &[Vec<RunResult>]) -> String {
    let set_json = |set: &Vec<RunResult>| {
        Value::Array(
            set.iter()
                .map(|r| {
                    let metrics = r
                        .metrics
                        .iter()
                        .map(|(n, v, u)| {
                            let entry = vec![
                                ("value".to_string(), Value::Float(*v)),
                                ("unit".to_string(), Value::Str(u.clone())),
                            ];
                            (n.clone(), Value::Map(entry))
                        })
                        .collect();
                    Value::Map(vec![
                        ("workload".to_string(), Value::Str(r.workload.clone())),
                        ("traced".to_string(), Value::Bool(r.traced)),
                        ("correct".to_string(), Value::Bool(r.correct)),
                        ("attempted".to_string(), Value::Int(r.attempted as i64)),
                        ("failed".to_string(), Value::Int(r.failed as i64)),
                        ("metrics".to_string(), Value::Map(metrics)),
                    ])
                })
                .collect(),
        )
    };
    let doc = Value::Map(vec![
        ("seed".to_string(), Value::Int(args.seed as i64)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("nproc".to_string(), Value::Int(crate::load::nproc() as i64)),
        ("sets".to_string(), Value::Array(sets.iter().map(set_json).collect())),
    ]);
    serde_json::to_string(&doc).expect("results are finite")
}

/// Run the suite from the repo root. Returns whether every run was
/// correct and, with `repeat >= 2`, every pair of sets agreed.
pub fn run(args: &SuiteArgs, out_dir: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let spec = Spec::parse(&text)?;
    let workloads: Vec<&String> = match &args.workload {
        Some(w) => {
            let known = spec.workloads.iter().filter(|k| *k == w).collect::<Vec<_>>();
            if known.is_empty() {
                return Err(format!(
                    "unknown workload: {w} (known: {})",
                    spec.workloads.join(", ")
                ));
            }
            known
        }
        None => spec.workloads.iter().collect(),
    };
    let seconds = if args.quick { 1.0 } else { spec.run_seconds };

    let mut all_correct = true;
    let mut sets = Vec::new();
    for _ in 0..args.repeat.max(1) {
        let mut set = Vec::new();
        for workload in &workloads {
            for traced in [false, true] {
                let result = run_child(workload, traced, seconds, args)?;
                if !result.correct {
                    all_correct = false;
                    eprintln!(
                        "{workload}: INCORRECT ({} of {} ops failed, traced={traced})",
                        result.failed, result.attempted
                    );
                }
                set.push(result);
            }
        }
        sets.push(set);
    }

    let mut agreed = true;
    for pair in sets.windows(2) {
        agreed &= compare(&spec, &pair[0], &pair[1]).is_empty();
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("results.json");
    std::fs::write(&path, results_json(args, seconds, &sets))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct && agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_the_six_workloads_and_the_metrics_a_run_reports() {
        let spec = spec();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        let names: Vec<&str> = spec.end_to_end.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["ops_per_s", "p50_ms", "tail_ms", "setup_s", "setup_rss_mb"]);
        assert!(spec.end_to_end.iter().all(|&(_, _, bound)| bound > 0.0 && bound <= 0.25));
        assert!(spec.run_seconds >= 1.0 && spec.run_seconds <= 60.0);
    }

    #[test]
    fn a_run_s_result_line_reads_back() {
        let report = crate::report::Report {
            attempted: 1000,
            failed: 0,
            invariants_held: true,
            metrics: vec![crate::report::Metric {
                name: "p50_ms",
                value: 1.2034,
                unit: "ms",
                samples: 1000,
            }],
            beside: Vec::new(),
        };
        let run = RunResult::parse("sql_exec", false, &report.to_json()).expect("parses");
        assert!(run.correct && !run.traced);
        assert_eq!((run.attempted, run.failed), (1000, 0));
        assert_eq!(run.metrics, [("p50_ms".to_string(), 1.2034, "ms".to_string())]);
        assert_eq!(RunResult::parse("sql_exec", false, "not a result"), None);
    }

    fn result(workload: &str, traced: bool, metrics: &[(&str, f64)]) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            traced,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v, String::new())).collect(),
        }
    }

    #[test]
    fn sets_agree_within_bounds_and_exact_counts_must_match() {
        let spec = spec();
        let bound = spec.end_to_end.iter().find(|(n, _, _)| n == "p50_ms").unwrap().2;
        let first = [
            result("sql_exec", false, &[("p50_ms", 1.0)]),
            result("sql_exec", true, &[("minidb.work_units", 1000.0)]),
        ];
        let close = [
            result("sql_exec", false, &[("p50_ms", 1.0 + bound * 0.9)]),
            result("sql_exec", true, &[("minidb.work_units", 1000.0)]),
        ];
        assert!(compare(&spec, &first, &close).is_empty());
        let far = [
            result("sql_exec", false, &[("p50_ms", 1.0 + bound * 1.5)]),
            result("sql_exec", true, &[("minidb.work_units", 1001.0)]),
        ];
        let bad = compare(&spec, &first, &far);
        let named: Vec<&str> = bad.iter().map(|d| d.metric.as_str()).collect();
        assert_eq!(named, ["p50_ms", "minidb.work_units"]);
        assert_eq!(bad[1].bound, 0.0);
    }
}
