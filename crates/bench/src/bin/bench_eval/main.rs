//! Micro-benchmarks the repo benchmark cannot resolve — emits
//! `BENCH_eval.json`.
//!
//! Every end-to-end question (throughput, latency, parallel speedup, the
//! cost of tracing, static checks and the cluster hop on a served request)
//! belongs to `benchmark/run.sh`. What stays here are single-thread costs
//! too small or too internal for a workload to isolate, each gated in a
//! form that holds on any core count:
//!
//! 1. **Query shapes** (`"shapes"`): ns/op of the minidb AST interpreter
//!    vs the compiled plan's columnar executor, with the plan cache on
//!    (lower once, execute many) and off (`run_query` re-lowers each
//!    call), on a BIRD-sized database. Every compiled shape must beat the
//!    interpreter by 2x and all of them together (Σ interpreter / Σ
//!    compiled) by 5x. Two kinds of row are recorded, not gated: the
//!    correlated EXISTS filter `compile` declines (the fallback control),
//!    and the join-strategy ablation — `hash_join`, an FK equi-join, vs
//!    `nested_loop`, the same query with `AND 1 = 1` appended, which is no
//!    longer an equi-join condition.
//! 2. **Observability** (`"obs"`): a disabled `obs` span+counter pair and a
//!    pre-registered labeled counter+histogram cell pair (the path serve
//!    records every completion through), each <= 250 ns.
//! 3. **Static analysis** (`"sqlcheck"`): `sqlcheck::analyze` and
//!    full-rule `equiv::canonicalize` per gold query, <= 2 µs and <= 12 µs.
//! 4. **Request tracing** (`"tracing"`): the ingress check an untraced
//!    request pays (one `Option` branch, <= 25 ns) and a traced request's
//!    whole bookkeeping — six spans, one append-and-complete, the
//!    flusher's `trace_spans` insert — <= 30 µs.
//! 5. **Few-shot retrieval** (`"few_shot"`, module `few_shot`):
//!    `FewShotIndex::select` vs a brute-force scan of the 7000-question
//!    Spider pool, >= 10x.
//!
//! ```text
//! bench_eval [--out FILE] [--validate]
//! ```
//!
//! `--validate` prints every gate's reading beside its bound and exits
//! nonzero if any reading is on the wrong side.

use datagen::{generate_corpus, generate_db, Corpus, CorpusConfig, CorpusKind, SchemaProfile};
use serve::trace::{SpanRecord, TraceStore};
use std::time::{Duration, Instant};

mod few_shot;

const METHOD: &str = "SuperSQL";

/// How long each timing runs (after one warmup call).
const TIMED: Duration = Duration::from_millis(100);

/// Mean ns per call of `f`, over batches of doubling size until [`TIMED`]
/// has passed, so a ns-scale call is not swamped by clock reads and a
/// ms-scale one still runs a few times.
fn time_ns(mut f: impl FnMut() -> usize) -> f64 {
    let mut sink = f();
    let (mut calls, mut batch) = (0u64, 1u64);
    let started = Instant::now();
    while started.elapsed() < TIMED {
        for _ in 0..batch {
            sink = sink.wrapping_add(f());
        }
        calls += batch;
        batch *= 2;
    }
    let ns = started.elapsed().as_nanos() as f64 / calls as f64;
    std::hint::black_box(sink);
    ns
}

/// One `--validate` gate: a reading and the bound it must not cross.
struct Gate {
    what: String,
    reading: f64,
    bound: f64,
    /// `true`: the reading must reach the bound (a speedup); `false`: it
    /// must stay under it (a cost).
    floor: bool,
}

impl Gate {
    fn floor(what: impl Into<String>, reading: f64, bound: f64) -> Gate {
        Gate { what: what.into(), reading, bound, floor: true }
    }

    fn ceiling(what: impl Into<String>, reading: f64, bound: f64) -> Gate {
        Gate { what: what.into(), reading, bound, floor: false }
    }

    fn holds(&self) -> bool {
        if self.floor {
            self.reading >= self.bound
        } else {
            self.reading <= self.bound
        }
    }
}

/// One query shape timed through the interpreter and the compiled plan.
struct ShapePoint {
    query: &'static str,
    interpreter_ns: f64,
    /// The plan from one `compile`, executed each call; for the fallback
    /// row, which has no plan, `run_query`'s interpreter run.
    compiled_ns: f64,
    /// `run_query`: compile and execute each call.
    cache_off_ns: f64,
    /// interpreter / compiled
    speedup: f64,
    /// `compile` declines the shape.
    fallback: bool,
    /// In the per-shape and aggregate gates: every compiled row but the
    /// join-strategy ablation.
    gated: bool,
}

/// What every gated shape must beat the interpreter by; the slowest read
/// x4.2 when the gate was set.
const SHAPE_MIN_SPEEDUP: f64 = 2.0;
/// What the gated shapes must beat it by together; they read x16.7.
const AGGREGATE_MIN_SPEEDUP: f64 = 5.0;

struct Shapes {
    points: Vec<ShapePoint>,
    /// Σ interpreter_ns / Σ compiled_ns over the gated rows.
    aggregate_speedup: f64,
}

fn bench_shapes() -> Shapes {
    let domain = datagen::domain_by_name("Finance").expect("domain exists");
    let g = generate_db("bench_plan_db", domain, &SchemaProfile::bird(), 7);
    let db = &g.database;
    let edges: Vec<(String, String, String)> = db
        .tables()
        .flat_map(|t| {
            t.schema.foreign_keys.iter().map(|fk| {
                (
                    t.schema.name.clone(),
                    t.schema.columns[fk.column].name.clone(),
                    fk.ref_table.clone(),
                )
            })
        })
        .collect();
    let (child, fk_col, parent) = edges.first().cloned().expect("bird profile generates FKs");
    // a second FK edge out of the same child or out of its parent: the
    // third table of `datagen`'s two-join recipe
    let (third, third_on) = edges
        .iter()
        .find_map(|(c, col, p)| {
            if *p == child || *p == parent {
                None
            } else if *c == child {
                Some((p.clone(), format!("T1.{col} = T3.id")))
            } else if *c == parent {
                Some((p.clone(), format!("T2.{col} = T3.id")))
            } else {
                None
            }
        })
        .expect("bird profile generates a two-edge FK path");

    let join = format!(
        "SELECT T1.id, T2.id FROM {child} AS T1 JOIN {parent} AS T2 ON T1.{fk_col} = T2.id"
    );
    let equi_chain = format!(
        "SELECT T1.id, T3.id FROM {child} AS T1 JOIN {parent} AS T2 ON T1.{fk_col} = T2.id \
         JOIN {third} AS T3 ON {third_on}"
    );
    // the comparison flip `sqlkit::mutate` mints
    let non_equi = format!(
        "SELECT T1.id, T2.id FROM {child} AS T1 JOIN {parent} AS T2 ON T1.{fk_col} != T2.id"
    );
    let group_by = format!("SELECT {fk_col}, COUNT(*) FROM {child} GROUP BY {fk_col}");
    let order_by =
        format!("SELECT id, {fk_col} FROM {child} ORDER BY {fk_col} DESC, id LIMIT 50");
    let set_op = format!("SELECT id FROM {child} UNION SELECT id FROM {parent}");
    // the two subquery shapes the corpora hold (datagen's `InSubquery` and
    // `ScalarSubquery` recipes): uncorrelated, compiled as sub-plan slots
    let in_subquery =
        format!("SELECT id FROM {parent} WHERE id IN (SELECT {fk_col} FROM {child})");
    let scalar_subquery = format!(
        "SELECT id FROM {child} WHERE {fk_col} > (SELECT AVG({fk_col}) FROM {child})"
    );
    // the fallback control, hand-written: no gold or predicted query in
    // either corpus has this shape
    let correlated = format!(
        "SELECT T1.id FROM {child} AS T1 WHERE EXISTS \
         (SELECT T2.id FROM {parent} AS T2 WHERE T2.id = T1.{fk_col})"
    );
    // the join-strategy ablation: one logical query, two strategies
    let hash_join =
        format!("SELECT COUNT(*) FROM {child} AS T1 JOIN {parent} AS T2 ON T1.{fk_col} = T2.id");
    let nested_loop = format!("{hash_join} AND 1 = 1");

    let parse = |sql: &str| sqlkit::parse_query(sql).expect("bench SQL parses");
    assert_eq!(
        db.run_query(&parse(&hash_join)).expect("runs").rows,
        db.run_query(&parse(&nested_loop)).expect("runs").rows,
        "join strategies must agree"
    );
    let shapes = [
        ("join", join),
        ("equi_chain", equi_chain),
        ("non_equi", non_equi),
        ("group_by", group_by),
        ("order_by", order_by),
        ("set_op", set_op),
        ("in_subquery", in_subquery),
        ("scalar_subquery", scalar_subquery),
        ("correlated", correlated),
        ("hash_join", hash_join),
        ("nested_loop", nested_loop),
    ];

    let (mut interp_sum, mut compiled_sum) = (0.0f64, 0.0f64);
    let points = shapes
        .iter()
        .map(|(name, sql)| {
            let query = parse(sql);
            let plan = minidb::compile(db, &query);
            assert_eq!(plan.is_none(), *name == "correlated", "only `correlated` falls back");
            let interpreter_ns =
                time_ns(|| minidb::exec::execute(db, &query).expect("executes").rows.len());
            let cache_off_ns = time_ns(|| db.run_query(&query).expect("executes").rows.len());
            let compiled_ns = match &plan {
                Some(plan) => time_ns(|| plan.execute(db).expect("executes").rows.len()),
                None => cache_off_ns,
            };
            let gated = plan.is_some() && !matches!(*name, "hash_join" | "nested_loop");
            if gated {
                interp_sum += interpreter_ns;
                compiled_sum += compiled_ns;
            }
            ShapePoint {
                query: name,
                interpreter_ns,
                compiled_ns,
                cache_off_ns,
                speedup: interpreter_ns / compiled_ns,
                fallback: plan.is_none(),
                gated,
            }
        })
        .collect();
    Shapes { points, aggregate_speedup: interp_sum / compiled_sum }
}

struct ObsPoint {
    /// ns for one disabled `obs` span + counter pair.
    disabled_pair_ns: f64,
    /// ns for one pre-registered labeled counter inc + histogram record.
    cell_pair_ns: f64,
    /// ns for a `with()` label resolution + counter inc (the cold path
    /// serve avoids by pre-registering cells); recorded.
    lookup_inc_ns: f64,
}

fn bench_obs() -> ObsPoint {
    assert!(!obs::enabled(), "the disabled path is measured with the recorder off");
    let disabled_pair_ns = time_ns(|| {
        let _span = obs::span("bench.disabled");
        obs::count("bench.disabled", 1);
        0
    });
    let registry = obs::registry::Registry::new();
    let counters = registry.counter_vec("bench_requests_total", "bench", &["method"]);
    let hists = registry.histogram_vec("bench_latency_us", "bench", &["method"]);
    let (cell, cell_hist) = (counters.with(&[METHOD]), hists.with(&[METHOD]));
    let cell_pair_ns = time_ns(|| {
        cell.inc();
        cell_hist.record(137);
        0
    });
    let lookup_inc_ns = time_ns(|| {
        counters.with(&[METHOD]).inc();
        0
    });
    ObsPoint { disabled_pair_ns, cell_pair_ns, lookup_inc_ns }
}

/// The gold queries the static-analysis micros run over: 300 Spider dev
/// samples, the corpus the absolute ceilings were set against.
fn gold_corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig { dev_samples: 300, ..CorpusConfig::tiny(5) })
}

struct SqlcheckPoint {
    queries: usize,
    /// ns for one full static analysis of a gold query (serve's
    /// `static_check` admission stage).
    analyze_ns_per_query: f64,
    /// ns to canonicalize one gold query under the full rule set with its
    /// catalog — an upper bound on what a canonical cache key costs a
    /// request, which derives it under a subset of the rules.
    canonicalize_ns_per_query: f64,
}

fn bench_sqlcheck(corpus: &Corpus) -> SqlcheckPoint {
    let catalogs: std::collections::HashMap<&str, sqlcheck::Catalog> = corpus
        .databases
        .iter()
        .map(|(id, db)| (id.as_str(), sqlcheck::Catalog::from_database(&db.database)))
        .collect();
    let queries = corpus.dev.len();
    let per_query = |pass: &dyn Fn(&datagen::Sample) -> usize| {
        time_ns(|| corpus.dev.iter().map(pass).sum()) / queries as f64
    };
    SqlcheckPoint {
        queries,
        analyze_ns_per_query: per_query(&|s| {
            sqlcheck::analyze(&catalogs[s.db_id.as_str()], &s.query).len()
        }),
        canonicalize_ns_per_query: per_query(&|s| {
            sqlcheck::equiv::canonicalize(
                &s.query,
                sqlcheck::equiv::RuleSet::full(),
                catalogs.get(s.db_id.as_str()),
            )
            .fired
            .len()
        }),
    }
}

struct TracingPoint {
    /// ns for the ingress decision an untraced request pays: one
    /// `Option<&TraceStore>` branch. This is the whole disabled path.
    disabled_check_ns: f64,
    /// ns to mint a trace id, build the six pipeline spans, append them as
    /// one completed tree, and flush it into `trace_spans`.
    enabled_request_ns: f64,
}

fn bench_tracing() -> TracingPoint {
    // the exact branch the pipeline takes when `request_tracing` is off
    let no_store: Option<&TraceStore> = None;
    let disabled_check_ns = time_ns(|| match std::hint::black_box(no_store) {
        Some(store) => store.next_span_id() as usize,
        None => 0,
    });

    // shaped like one real request: its six spans (root + queue /
    // translate / static_check / execute / compare, attributes formatted
    // as `Inner::complete` does) stored in one append-and-complete, then
    // the flusher's share — `serve::flush_warehouse` draining the tree
    // into `trace_spans`. The warehouse restarts every 1024 traces so
    // memory stays bounded.
    let store = TraceStore::new("bench", 1024, Instant::now());
    let (mut warehouse, mut held) = (nl2sql360::EvalStore::new(), 0usize);
    let enabled_request_ns = time_ns(|| {
        let tid = store.mint("concert_singer", "how many singers do we have", METHOD);
        let (root, t0) = (store.next_span_id(), Instant::now());
        let child = |(name, attrs): (&str, String)| {
            store.span(tid, store.next_span_id(), root, name, t0..t0, attrs)
        };
        let (hit, one) = std::hint::black_box((0u8, 1u8));
        let mut spans: Vec<SpanRecord> = [
            ("queue", String::new()),
            ("translate", format!("method={METHOD}")),
            ("static_check", format!("rules_fired={hit}")),
            ("execute", format!("cache_hit={hit}")),
            ("compare", format!("ex={one} em={hit}")),
        ]
        .map(child)
        .into();
        let attrs = format!("outcome=ok batch={one} cache_hit={hit}");
        spans.push(store.span(tid, root, 0, "request", t0..t0, attrs));
        store.append(tid, spans, true);
        if held == 1024 {
            (warehouse, held) = (nl2sql360::EvalStore::new(), 0);
        }
        held += 1;
        serve::flush_warehouse(&mut warehouse, Some(&store), t0, &[], ("bench", "bench"));
        held
    });
    TracingPoint { disabled_check_ns, enabled_request_ns }
}

fn main() {
    let usage = "usage: bench_eval [--out FILE] [--validate]";
    let (mut out, mut validate) = ("BENCH_eval.json".to_string(), false);
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--validate" => validate = true,
            "--out" => match argv.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out needs a value\n{usage}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{usage}");
                return;
            }
            other => {
                eprintln!("unknown flag: {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let started = Instant::now();

    eprintln!("bench_eval: query shapes (interpreter vs compiled plan) ...");
    let shapes = bench_shapes();
    for p in &shapes.points {
        let note = match (p.fallback, p.gated) {
            (true, _) => "  (compile fallback; recorded)",
            (false, false) => "  (join-strategy ablation; recorded)",
            _ => "",
        };
        eprintln!(
            "  {:<15} interpreter {:>9.0}ns  compiled {:>9.0}ns  cache-off {:>9.0}ns  x{:.2}{note}",
            p.query, p.interpreter_ns, p.compiled_ns, p.cache_off_ns, p.speedup
        );
    }
    eprintln!("  aggregate speedup vs interpreter: x{:.2}", shapes.aggregate_speedup);

    eprintln!("bench_eval: observability hot paths ...");
    let obs = bench_obs();
    eprintln!(
        "  disabled span+counter {:.1}ns  cell pair {:.1}ns  with()+inc {:.1}ns",
        obs.disabled_pair_ns, obs.cell_pair_ns, obs.lookup_inc_ns
    );

    eprintln!("bench_eval: static analysis per gold query ...");
    let check = bench_sqlcheck(&gold_corpus());
    eprintln!(
        "  {} queries: analyze {:.0}ns  canonicalize {:.0}ns (full rule set)",
        check.queries, check.analyze_ns_per_query, check.canonicalize_ns_per_query
    );

    eprintln!("bench_eval: request tracing bookkeeping ...");
    let tracing = bench_tracing();
    eprintln!(
        "  untraced ingress check {:.1}ns  traced request {:.0}ns",
        tracing.disabled_check_ns, tracing.enabled_request_ns
    );

    eprintln!("bench_eval: few-shot retrieval (inverted index vs brute-force scan) ...");
    let few_shot = few_shot::bench();
    few_shot.print();

    let shape_rows: Vec<String> = shapes
        .points
        .iter()
        .map(|p| {
            format!(
                "      {{\"query\": \"{}\", \"interpreter_ns\": {:.0}, \"compiled_ns\": {:.0}, \
                 \"cache_off_ns\": {:.0}, \"speedup\": {:.3}, \"fallback\": {}, \"gated\": {}}}",
                p.query, p.interpreter_ns, p.compiled_ns, p.cache_off_ns, p.speedup, p.fallback,
                p.gated
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"cores\": {}, \"timed_ms_per_measurement\": {}, \"gold_queries\": {}}},\n  \
         \"shapes\": {{\n    \"points\": [\n{}\n    ],\n    \"aggregate_speedup\": {:.3}\n  }},\n  \
         \"obs\": {{\"disabled_pair_ns\": {:.1}, \"cell_pair_ns\": {:.1}, \"lookup_inc_ns\": {:.1}}},\n  \
         \"sqlcheck\": {{\"analyze_ns_per_query\": {:.1}, \"canonicalize_ns_per_query\": {:.1}}},\n  \
         \"tracing\": {{\"disabled_check_ns\": {:.1}, \"enabled_request_ns\": {:.1}}},\n  \
         \"few_shot\": {{\n{}\n  }}\n}}\n",
        nl2sql360::default_workers(),
        TIMED.as_millis(),
        check.queries,
        shape_rows.join(",\n"),
        shapes.aggregate_speedup,
        obs.disabled_pair_ns,
        obs.cell_pair_ns,
        obs.lookup_inc_ns,
        check.analyze_ns_per_query,
        check.canonicalize_ns_per_query,
        tracing.disabled_check_ns,
        tracing.enabled_request_ns,
        few_shot.json(),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out} in {:.1}s", started.elapsed().as_secs_f64());

    if validate {
        let mut gates: Vec<Gate> = shapes
            .points
            .iter()
            .filter(|p| p.gated)
            .map(|p| Gate::floor(format!("{} speedup", p.query), p.speedup, SHAPE_MIN_SPEEDUP))
            .collect();
        gates.extend([
            Gate::floor("aggregate shape speedup", shapes.aggregate_speedup, AGGREGATE_MIN_SPEEDUP),
            Gate::ceiling("disabled span+counter ns", obs.disabled_pair_ns, 250.0),
            Gate::ceiling("labeled cell pair ns", obs.cell_pair_ns, 250.0),
            Gate::ceiling("analyze ns/query", check.analyze_ns_per_query, 2_000.0),
            Gate::ceiling("canonicalize ns/query", check.canonicalize_ns_per_query, 12_000.0),
            Gate::ceiling("untraced ingress check ns", tracing.disabled_check_ns, 25.0),
            Gate::ceiling("traced request ns", tracing.enabled_request_ns, 30_000.0),
            few_shot.gate(),
        ]);
        for g in &gates {
            let verdict = if g.holds() { "ok  " } else { "FAIL" };
            let op = if g.floor { ">=" } else { "<=" };
            eprintln!("  {verdict} {}: {:.2} {op} {}", g.what, g.reading, g.bound);
        }
        if gates.iter().any(|g| !g.holds()) {
            std::process::exit(1);
        }
        println!("validation passed: {} gates", gates.len());
    }
}
