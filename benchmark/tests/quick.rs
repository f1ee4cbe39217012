//! The `--quick` smoke: the suite at one second per run, one round and a
//! 64-op replay, over all six workloads, untraced and traced.

use std::path::Path;
use std::process::Command;

#[test]
fn quick_suite_runs_every_workload_correctly_and_writes_its_traces() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the crate sits in the repo");
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_nl2sql-benchmark"))
        .args(["--quick", "--seed", "11"])
        .current_dir(root)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "suite failed:\n{stdout}\n{stderr}");
    assert!(started.elapsed().as_secs() < 60, "quick suite took {:?}", started.elapsed());

    let results =
        std::fs::read_to_string(root.join("benchmark/out/results.json")).expect("results.json");
    let results: serde::Value = serde_json::from_str(&results).expect("results.json is JSON");
    let Some(serde::Value::Array(sets)) = results.get("sets") else { panic!("no sets") };
    let serde::Value::Array(runs) = &sets[0] else { panic!("a set is an array") };
    assert_eq!(runs.len(), 12, "six workloads, untraced and traced");
    for run in runs {
        assert_eq!(run.get("correct"), Some(&serde::Value::Bool(true)), "{run:?}");
        assert_eq!(run.get("failed"), Some(&serde::Value::Int(0)), "{run:?}");
    }

    for workload in nl2sql_benchmark::workloads::NAMES {
        // every metric line names its workload, value, unit and sample count
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{workload} ops_per_s ")))
            .unwrap_or_else(|| panic!("no ops_per_s line for {workload}:\n{stdout}"));
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 5, "{line}");
        assert!(fields[2].parse::<f64>().expect("a value") > 0.0, "{line}");
        assert!(fields[4].starts_with("n="), "{line}");

        // the trace writer: one JSON object per span, op roots first
        let path = root.join(format!("benchmark/out/trace-{workload}.jsonl"));
        let trace =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let first: serde::Value =
            serde_json::from_str(trace.lines().next().expect("a span")).expect("JSON");
        assert_eq!(first.get("name"), Some(&serde::Value::Str("op".to_string())));
        assert_eq!(first.get("parent"), Some(&serde::Value::Null));
        assert!(trace.lines().count() > 64, "{workload}: {} spans", trace.lines().count());
    }
}
