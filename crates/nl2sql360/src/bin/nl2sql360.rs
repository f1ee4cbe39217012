//! The NL2SQL360 command-line testbed — the practitioner surface the paper's
//! Figure 4 describes: configure an evaluation, run methods over benchmarks,
//! inspect logs as leaderboards over filtered subsets.
//!
//! ```text
//! nl2sql360 generate   --kind spider|bird --size tiny|quick|full --seed N --out corpus.json
//! nl2sql360 evaluate   --corpus corpus.json --methods all|"A,B,C" [--parallel N] [--trace out.json]
//!                      [--emit-metrics out.prom] --logs DIR
//! nl2sql360 leaderboard --logs DIR --dataset Spider|BIRD --metric ex|em|qvt|ves|cost|tokens
//!                       [--filter "hardness=extra,subquery=yes,joins=2+"]
//! nl2sql360 methods    # list the model zoo
//! nl2sql360 diagnose   --corpus corpus.json --method NAME [--limit N] [--parallel N] [--trace out.json]
//! ```
//!
//! `--trace FILE` records stage-level spans and counters across the whole
//! stack (modelzoo translation stages, evaluation workers, minidb
//! execution) into a `chrome://tracing` / Perfetto-loadable JSON file and
//! prints a flame summary on stderr when the command finishes.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use modelzoo::{Nl2SqlModel, SimulatedModel};
use nl2sql360::{
    diagnose, evaluate_all_with_workers, metrics, EvalContext, EvalLog, EvalOptions, Filter,
    LogStore, TextTable,
};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "leaderboard" => cmd_leaderboard(&opts),
        "methods" => cmd_methods(),
        "dashboard" => cmd_dashboard(&opts),
        "diagnose" => cmd_diagnose(&opts),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  nl2sql360 generate    --kind spider|bird --size tiny|quick|full [--seed N] --out FILE
  nl2sql360 evaluate    --corpus FILE [--methods all|\"A,B\"] [--parallel N] [--trace OUT.json]
                        [--emit-metrics OUT.prom] --logs DIR
  nl2sql360 leaderboard --logs DIR --dataset Spider|BIRD [--metric ex|em|qvt|ves|cost|tokens] [--filter SPEC]
  nl2sql360 methods
  nl2sql360 dashboard   --logs DIR --dataset Spider|BIRD --method NAME
  nl2sql360 diagnose    --corpus FILE --method NAME [--limit N] [--parallel N] [--trace OUT.json]";

fn parse_opts(rest: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, found `{}`", rest[i]))?;
        let value =
            rest.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?.clone();
        opts.insert(key.to_string(), value);
        i += 2;
    }
    Ok(opts)
}

fn require<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("--{key} is required"))
}

/// `--parallel N` worker count, defaulting to the machine's available cores.
fn parallel_workers(opts: &HashMap<String, String>) -> Result<usize, String> {
    match opts.get("parallel") {
        None => Ok(nl2sql360::default_workers()),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --parallel `{s}` (want an integer >= 1)")),
        },
    }
}

/// `--trace FILE`: start recording; returns the output path plus the guard
/// keeping the recorder enabled. Pass the result to [`trace_finish`] once
/// the command's work is done.
fn trace_start(opts: &HashMap<String, String>) -> Option<(String, obs::EnableGuard)> {
    opts.get("trace").map(|path| {
        obs::reset();
        (path.clone(), obs::enable())
    })
}

/// Write the chrome-trace JSON and print the flame summary for a recording
/// started by [`trace_start`]. A no-op without `--trace`.
fn trace_finish(trace: Option<(String, obs::EnableGuard)>) -> Result<(), String> {
    let Some((path, guard)) = trace else {
        return Ok(());
    };
    let snap = obs::snapshot();
    drop(guard);
    std::fs::write(&path, obs::export::chrome_trace(&snap))
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("{}", obs::export::flame_summary(&snap));
    eprintln!("trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
    obs::reset();
    Ok(())
}

fn load_corpus(path: &str) -> Result<Corpus, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = match require(opts, "kind")? {
        "spider" => CorpusKind::Spider,
        "bird" => CorpusKind::Bird,
        other => return Err(format!("--kind must be spider|bird, got `{other}`")),
    };
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed `{s}`")))
        .transpose()?
        .unwrap_or(42);
    let config = match require(opts, "size")? {
        "tiny" => CorpusConfig::tiny(seed),
        "quick" => CorpusConfig {
            train_dbs: 40,
            dev_dbs: 8,
            train_samples: 600,
            dev_samples: 200,
            variant_prob: 0.5,
            seed,
        },
        "full" => match kind {
            CorpusKind::Spider => CorpusConfig::spider(seed),
            CorpusKind::Bird => CorpusConfig::bird(seed),
        },
        other => return Err(format!("--size must be tiny|quick|full, got `{other}`")),
    };
    let out = require(opts, "out")?;
    eprintln!("generating {} corpus (size={}, seed={seed}) ...", kind.name(), require(opts, "size")?);
    let corpus = generate_corpus(kind, &config);
    let json = serde_json::to_string(&corpus).map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {} databases, {} train / {} dev samples ({} bytes)",
        corpus.databases.len(),
        corpus.train.len(),
        corpus.dev.len(),
        json.len()
    );
    Ok(())
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(require(opts, "corpus")?)?;
    let logs_dir = require(opts, "logs")?;
    let zoo = modelzoo::zoo();
    let selected: Vec<SimulatedModel> = match opts.get("methods").map(String::as_str) {
        None | Some("all") => zoo,
        Some(list) => {
            let names: Vec<&str> = list.split(',').map(str::trim).collect();
            let picked: Vec<SimulatedModel> = zoo
                .into_iter()
                .filter(|m| names.contains(&m.name()))
                .collect();
            if picked.len() != names.len() {
                let known: Vec<&str> =
                    modelzoo::all_methods().iter().map(|m| m.name).collect();
                return Err(format!(
                    "unknown method in `{list}`; known methods: {known:?}"
                ));
            }
            picked
        }
    };
    let workers = parallel_workers(opts)?;
    eprintln!(
        "evaluating {} methods on {} ({} dev samples, {workers} workers) ...",
        selected.len(),
        corpus.kind.name(),
        corpus.dev.len()
    );
    let ctx = EvalContext::new(&corpus);
    let trace = trace_start(opts);
    // --emit-metrics needs the recorder too; enable it ourselves only
    // when --trace has not already done so.
    let metrics_out = opts.get("emit-metrics").cloned();
    let metrics_guard = (metrics_out.is_some() && trace.is_none()).then(|| {
        obs::reset();
        obs::enable()
    });
    let logs = evaluate_all_with_workers(&ctx, &selected, workers);
    if let Some(path) = &metrics_out {
        let exposition =
            obs::registry::bridge_recorder(&obs::snapshot()).render_prometheus();
        std::fs::write(path, exposition).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("prometheus exposition written to {path}");
    }
    if let Some(guard) = metrics_guard {
        drop(guard);
        obs::reset();
    }
    trace_finish(trace)?;
    let store = LogStore::open(logs_dir).map_err(|e| e.to_string())?;
    for log in &logs {
        let path = store.save(log).map_err(|e| e.to_string())?;
        println!(
            "{:<24} EX={} -> {}",
            log.method,
            metrics::ex(log, &Filter::all()).map(|v| format!("{v:.1}")).unwrap_or_default(),
            path.display()
        );
    }
    Ok(())
}

fn cmd_leaderboard(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = LogStore::open(require(opts, "logs")?).map_err(|e| e.to_string())?;
    let dataset = require(opts, "dataset")?;
    let filter = match opts.get("filter") {
        Some(spec) => Filter::parse(spec)?,
        None => Filter::all(),
    };
    let metric_name = opts.get("metric").map(String::as_str).unwrap_or("ex");
    let metric: fn(&EvalLog, &Filter) -> Option<f64> = match metric_name {
        "ex" => metrics::ex,
        "em" => metrics::em,
        "qvt" => metrics::qvt,
        "ves" => metrics::ves,
        "cost" => metrics::avg_cost,
        "tokens" => metrics::avg_tokens,
        other => return Err(format!("unknown metric `{other}`")),
    };

    let mut logs = Vec::new();
    for (ds, method) in store.list().map_err(|e| e.to_string())? {
        if ds.eq_ignore_ascii_case(dataset) {
            logs.push(store.load(&ds, &method).map_err(|e| e.to_string())?);
        }
    }
    if logs.is_empty() {
        return Err(format!("no logs for dataset `{dataset}` under {:?}", store.root()));
    }
    let subset = metrics::subset_size(&logs[0], &filter);
    let mut rows: Vec<(String, String, Option<f64>)> = logs
        .iter()
        .map(|l| (l.method.clone(), l.class_label.clone(), metric(l, &filter)))
        .collect();
    rows.sort_by(|a, b| {
        b.2.unwrap_or(f64::NEG_INFINITY)
            .partial_cmp(&a.2.unwrap_or(f64::NEG_INFINITY))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut table = TextTable::new(&["#", "Method", "Class", metric_name]);
    for (i, (m, c, v)) in rows.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            m.clone(),
            c.clone(),
            v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{dataset} leaderboard, metric={metric_name}, subset size={subset}");
    println!("{}", table.render());
    Ok(())
}

fn cmd_methods() -> Result<(), String> {
    let mut table = TextTable::new(&["Method", "Class", "Backbone", "Params", "Release"]);
    for m in modelzoo::all_methods() {
        table.row(vec![
            m.name.to_string(),
            m.class.label().to_string(),
            m.backbone.to_string(),
            m.params_b.map(|p| format!("{p}B")).unwrap_or_else(|| "-".into()),
            format!("{:04}-{:02}", m.release.0, m.release.1),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Multi-panel text dashboard for one method against the field — the
/// "dashboard for interactive analysis" of the paper's Evaluator component.
fn cmd_dashboard(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = LogStore::open(require(opts, "logs")?).map_err(|e| e.to_string())?;
    let dataset = require(opts, "dataset")?;
    let method = require(opts, "method")?;

    let mut logs = Vec::new();
    for (ds, m) in store.list().map_err(|e| e.to_string())? {
        if ds.eq_ignore_ascii_case(dataset) {
            logs.push(store.load(&ds, &m).map_err(|e| e.to_string())?);
        }
    }
    let log = logs
        .iter()
        .find(|l| l.method == method)
        .ok_or_else(|| format!("no log for `{method}` on {dataset}"))?;

    let field_best = |f: &Filter| -> Option<f64> {
        logs.iter().filter_map(|l| metrics::ex(l, f)).fold(None, |acc, v| {
            Some(acc.map_or(v, |a: f64| a.max(v)))
        })
    };
    let bar = |v: Option<f64>| -> String {
        v.map(|v| "#".repeat((v / 2.5) as usize)).unwrap_or_default()
    };

    println!("=== {method} on {dataset} ({} dev samples) ===\n", log.records.len());

    println!("-- accuracy panel --");
    let all = Filter::all();
    println!(
        "EX  {:>5}  {}",
        metrics::ex(log, &all).map(|v| format!("{v:.1}")).unwrap_or_default(),
        bar(metrics::ex(log, &all))
    );
    println!(
        "EM  {:>5}  {}",
        metrics::em(log, &all).map(|v| format!("{v:.1}")).unwrap_or_default(),
        bar(metrics::em(log, &all))
    );
    println!(
        "QVT {:>5}  {}",
        metrics::qvt(log, &all).map(|v| format!("{v:.1}")).unwrap_or_default(),
        bar(metrics::qvt(log, &all))
    );
    println!(
        "VES {:>5}  {}",
        metrics::ves(log, &all).map(|v| format!("{v:.1}")).unwrap_or_default(),
        bar(metrics::ves(log, &all))
    );

    println!("\n-- complexity panel (EX vs field best) --");
    for h in sqlkit::Hardness::ALL {
        let f = Filter::all().hardness(h);
        let mine = metrics::ex(log, &f);
        let best = field_best(&f);
        println!(
            "{:<8} {:>5} / best {:>5}   {}",
            h.label(),
            mine.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            best.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            bar(mine)
        );
    }

    println!("\n-- characteristics panel (EX) --");
    for (label, f) in [
        ("w/ subquery", Filter::all().subquery(true)),
        ("w/ JOIN", Filter::all().joins(nl2sql360::CountBucket::Any)),
        ("w/ logical", Filter::all().logical(nl2sql360::CountBucket::Any)),
        ("w/ ORDER BY", Filter::all().order_by(true)),
    ] {
        let mine = metrics::ex(log, &f);
        println!(
            "{:<12} {:>5}  {} (n={})",
            label,
            mine.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            bar(mine),
            metrics::subset_size(log, &f)
        );
    }
    Ok(())
}

fn cmd_diagnose(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(require(opts, "corpus")?)?;
    let method = require(opts, "method")?;
    let limit: usize = opts
        .get("limit")
        .map(|s| s.parse().map_err(|_| format!("bad --limit `{s}`")))
        .transpose()?
        .unwrap_or(usize::MAX);
    let workers = parallel_workers(opts)?;
    let spec = modelzoo::method_by_name(method)
        .ok_or_else(|| format!("unknown method `{method}`"))?;
    let model = SimulatedModel::new(spec);
    let ctx = EvalContext::new(&corpus);
    let trace = trace_start(opts);
    let log = ctx
        .evaluate_with(&model, &EvalOptions::new().workers(workers).match_kind(true))
        .ok_or_else(|| format!("{method} does not run on {}", corpus.kind.name()))?;
    trace_finish(trace)?;

    // error profile over the EX-wrong canonical predictions
    let mut pairs = Vec::new();
    for (i, r) in log.records.iter().enumerate().take(limit) {
        if !r.canonical().ex {
            let pred = sqlkit::parse_query(&r.canonical().pred_sql)
                .map_err(|e| format!("stored prediction unparseable: {e}"))?;
            pairs.push((corpus.dev[i].query.clone(), pred));
        }
    }
    println!(
        "{method} on {}: {} wrong predictions diagnosed",
        corpus.kind.name(),
        pairs.len()
    );
    let profile = diagnose::error_profile(pairs.iter().map(|(g, p)| (g, p)));
    let mut table = TextTable::new(&["Mismatch", "Count"]);
    for (m, n) in profile {
        table.row(vec![m.label().to_string(), n.to_string()]);
    }
    println!("{}", table.render());

    // execution failures (predictions that did not run at all), by kind
    let failures = nl2sql360::exec_failure_profile(&log);
    if !failures.is_empty() {
        let mut table = TextTable::new(&["Execution failure", "Count"]);
        for (kind, n) in failures {
            table.row(vec![kind.label().to_string(), n.to_string()]);
        }
        println!("{}", table.render());
    }

    // EM-vs-EX disagreement: semantically-right predictions the exact
    // matcher rejects, and how many the canonicalizer proves equivalent
    println!("-- EM-vs-EX disagreement (canonical variant) --");
    let mut table = TextTable::new(&[
        "Subset",
        "EX-pass",
        "EM-fail",
        "Disagree%",
        "Equiv-proven",
        "Explained%",
    ]);
    let mut subsets = vec![("all".to_string(), Filter::all())];
    for h in sqlkit::Hardness::ALL {
        subsets.push((h.label().to_string(), Filter::all().hardness(h)));
    }
    for (label, f) in subsets {
        let d = nl2sql360::em_ex_disagreement(&log, &f);
        table.row(vec![
            label,
            d.ex_pass.to_string(),
            d.ex_pass_em_fail.to_string(),
            nl2sql360::fmt_opt(d.disagreement_rate(), 1),
            d.equiv_explained.to_string(),
            nl2sql360::fmt_opt(d.explained_share(), 1),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}
