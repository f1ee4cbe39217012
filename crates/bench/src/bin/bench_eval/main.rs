//! Evaluation throughput benchmark — emits `BENCH_eval.json`.
//!
//! Measures two things:
//!
//! 1. **Parallel corpus evaluation**: samples/sec of
//!    [`EvalContext::evaluate_with`] at 1/2/4/8 workers, plus the
//!    speedup over the 1-worker (sequential) run.
//! 2. **Compiled query plans**: ns/op for the minidb AST interpreter vs
//!    the compiled plan on join, group-by, order-by (with LIMIT), and
//!    set-op microbenches plus the two uncorrelated subquery shapes the
//!    corpora hold (`id IN (SELECT fk ...)`, `col > (SELECT AVG(col)
//!    ...)`), with the plan cache on (lower once, execute many) and off
//!    (`run_query` re-lowers each call). A correlated EXISTS filter rides
//!    along as the compile-fallback control: it runs on the interpreter
//!    and is recorded, not gated. The same shapes, plus two more join
//!    shapes (`equi_chain`, a 3-table BIRD gold shape, and `non_equi`,
//!    the `a JOIN b ON a.fk != b.id` that `sqlkit::mutate`'s comparison
//!    flip mints), feed a **columnar** record: compiled vs interpreter
//!    per shape, gated at >= 2x on any core count (a single-thread
//!    ratio), and in aggregate (Σ interpreter_ns / Σ columnar_ns over the
//!    compiled shapes).
//! 3. **Observability overhead**: the same evaluation with tracing on vs
//!    off, plus the micro-cost of a disabled span+counter pair. The
//!    trace-off pass runs *after* the trace-on pass, so a recorder that
//!    leaks past its enable guard shows up as a disabled-path regression.
//! 4. **Registry recording overhead**: ns/op for the labeled-metric hot
//!    path serve records every completion through (a pre-registered
//!    counter+histogram cell pair, and the `with()` label-resolution path
//!    it avoids).
//! 5. **Static-check overhead**: ns/query for the `sqlcheck` analyzer
//!    over the corpus gold queries, plus a closed-loop serve
//!    mini-workload with the `static_check` admission stage on vs off.
//! 6. **Distributed serve overhead**: the same closed loop driven through
//!    an embedded scheduler + 1 worker over real loopback TCP vs the
//!    in-process engine at matched client concurrency, plus a 2-worker
//!    scale record. Like the parallel-evaluation gate, the <= 5% budget
//!    is only enforced on machines with >= 4 cores: with a single core
//!    the hop's framing and context switches serialize with query
//!    execution instead of overlapping it.
//! 7. **Request-tracing + warehouse overhead**: the closed-loop serve
//!    mini-workload with per-request span trees and the telemetry
//!    warehouse (span persistence + metrics snapshots) on vs off, gated
//!    on the µs it adds per request, plus a micro record of the
//!    per-request disabled-path check (the single `Option` branch every
//!    untraced request pays).
//! 8. **Few-shot retrieval** (module `few_shot`): `FewShotIndex::select`
//!    against a brute-force scan of the 7000-question Spider pool, with
//!    the postings walked per query and the index's size; gated at
//!    index >= 10x the scan on any core count.
//!
//! ```text
//! bench_eval [--quick] [--out FILE] [--validate]
//! ```
//!
//! `--quick` shrinks the evaluation sweep for smoke testing; measurements
//! that feed `--validate` gates always run at full repetition (they cost
//! under a second, and a single-shot timing ratio on a busy box produces
//! false failures). `--validate` exits nonzero unless the compiled plan
//! beats the interpreter on every microbench (by 2x on every columnar
//! shape), the aggregate columnar speedup reaches 5x on machines with >= 4
//! cores (recorded, not enforced, below that), the disabled-path
//! throughput after tracing stays within 5% of the pre-tracing
//! measurement, a labeled cell pair stays inside its ns budget, canonical
//! cache keys add no more per request than one canonicalization (plus
//! the paired runs' interquartile range, their own resolution), request
//! tracing + the warehouse add no more per request than one request's
//! span bookkeeping (plus, again, the pairs' interquartile range; the
//! untraced ingress check stays inside its ns budget), and (on
//! machines with >= 4 cores) evaluation reaches 2x throughput at 4
//! workers; parallel scaling is physically impossible on fewer cores, so
//! that check is recorded but not enforced there.

use datagen::{generate_corpus, generate_db, Corpus, CorpusConfig, CorpusKind, SchemaProfile};
use modelzoo::{method_by_name, SimulatedModel};
use nl2sql360::{EvalContext, EvalOptions};
use serve::trace::{SpanRecord, TraceStore};
use serve::{QueryRequest, ServeConfig, Service};
use std::fmt::Write as _;
use std::time::Instant;

mod few_shot;

const METHOD: &str = "SuperSQL";
const WORKER_SWEEP: &[usize] = &[1, 2, 4, 8];

struct Args {
    quick: bool,
    out: String,
    validate: bool,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, out: "BENCH_eval.json".into(), validate: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: bench_eval [--quick] [--out FILE] [--validate]";
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--validate" => args.validate = true,
            "--out" => {
                args.out = argv
                    .get(i + 1)
                    .unwrap_or_else(|| {
                        eprintln!("--out needs a value\n{usage}");
                        std::process::exit(2);
                    })
                    .clone();
                i += 1;
            }
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

struct EvalPoint {
    workers: usize,
    samples_per_sec: f64,
    speedup_vs_1: f64,
}

/// Best-of-`reps` wall time for one full `evaluate_with` pass.
fn time_evaluate(ctx: &EvalContext<'_>, model: &SimulatedModel, workers: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let log = ctx.evaluate_with(model, &EvalOptions::new().workers(workers)).expect("model runs on corpus");
        let elapsed = started.elapsed().as_secs_f64();
        assert!(!log.records.is_empty());
        best = best.min(elapsed);
    }
    best
}

struct PlanPoint {
    query: &'static str,
    interpreter_ns: f64,
    compiled_ns: f64,
    cache_off_ns: f64,
    /// interpreter / compiled (higher is better for the compiled path)
    speedup: f64,
}

/// One query shape timed through the interpreter vs the compiled plan's
/// columnar executor. `fallback` marks shapes `compile` declines
/// (correlated subqueries): they run on the interpreter regardless, are
/// recorded for coverage, and are excluded from the gate and the
/// aggregate speedup.
struct ColumnarPoint {
    query: &'static str,
    interpreter_ns: f64,
    columnar_ns: f64,
    /// interpreter / columnar
    speedup_vs_interpreter: f64,
    fallback: bool,
}

/// What every compiled shape must beat the interpreter by. Both sides run
/// on one thread, so the ratio holds on any core count; the slowest shape
/// read x4.4 when the gate was set.
const COLUMNAR_MIN_SPEEDUP: f64 = 2.0;

struct PlanBench {
    plans: Vec<PlanPoint>,
    columnar: Vec<ColumnarPoint>,
    /// Σ interpreter_ns / Σ columnar_ns over the non-fallback shapes.
    aggregate_speedup: f64,
}

/// Mean ns/op of `f` over `iters` calls (after one warmup call).
fn time_ns(iters: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut sink = f();
    let started = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let ns = started.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(sink);
    ns
}

fn bench_plans(iters: usize) -> PlanBench {
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
    // the control: `compile` declines a correlated subquery, so this runs on
    // the interpreter and is recorded, not gated. Hand-written — no gold or
    // predicted query in either corpus has this shape.
    let correlated = format!(
        "SELECT T1.id FROM {child} AS T1 WHERE EXISTS \
         (SELECT T2.id FROM {parent} AS T2 WHERE T2.id = T1.{fk_col})"
    );

    let mut plans = Vec::new();
    let mut columnar = Vec::new();
    let (mut interp_sum, mut columnar_sum) = (0.0f64, 0.0f64);
    for (name, sql) in [
        ("join", join),
        ("equi_chain", equi_chain),
        ("non_equi", non_equi),
        ("group_by", group_by),
        ("order_by", order_by),
        ("set_op", set_op),
        ("in_subquery", in_subquery),
        ("scalar_subquery", scalar_subquery),
        ("correlated", correlated),
    ] {
        let query = sqlkit::parse_query(&sql).expect("bench SQL parses");
        let interpreter_ns =
            time_ns(iters, || minidb::exec::execute(db, &query).expect("executes").rows.len());
        let Some(plan) = minidb::compile(db, &query) else {
            assert_eq!(name, "correlated", "only the correlated shape may fall back");
            columnar.push(ColumnarPoint {
                query: name,
                interpreter_ns,
                columnar_ns: interpreter_ns,
                speedup_vs_interpreter: 1.0,
                fallback: true,
            });
            continue;
        };
        let compiled_ns = time_ns(iters, || plan.execute(db).expect("executes").rows.len());
        let cache_off_ns = time_ns(iters, || db.run_query(&query).expect("executes").rows.len());
        plans.push(PlanPoint {
            query: name,
            interpreter_ns,
            compiled_ns,
            cache_off_ns,
            speedup: interpreter_ns / compiled_ns,
        });
        interp_sum += interpreter_ns;
        columnar_sum += compiled_ns;
        columnar.push(ColumnarPoint {
            query: name,
            interpreter_ns,
            columnar_ns: compiled_ns,
            speedup_vs_interpreter: interpreter_ns / compiled_ns,
            fallback: false,
        });
    }
    PlanBench { plans, columnar, aggregate_speedup: interp_sum / columnar_sum }
}

struct TracePoint {
    workers: usize,
    off_samples_per_sec: f64,
    on_samples_per_sec: f64,
    /// (off - on) / off as a percentage; what enabling tracing costs.
    trace_on_overhead_pct: f64,
    /// Post-tracing disabled time / pre-tracing time. > 1.05 means the
    /// disabled path regressed (e.g. a leaked enable guard).
    disabled_regression: f64,
    /// ns for one disabled span + counter pair.
    disabled_ns_per_op: f64,
}

/// Trace-on vs trace-off evaluation timings. `base_secs` is the 4-worker
/// time measured before any tracing ran in this process.
fn bench_trace(
    ctx: &EvalContext<'_>,
    model: &SimulatedModel,
    n_samples: usize,
    base_secs: f64,
    reps: usize,
) -> TracePoint {
    let workers = 4;
    let on_secs = {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            obs::reset();
            let started = Instant::now();
            let log = ctx
                .evaluate_with(model, &EvalOptions::new().workers(workers).trace(true))
                .expect("model runs on corpus");
            let elapsed = started.elapsed().as_secs_f64();
            assert!(!log.records.is_empty());
            best = best.min(elapsed);
        }
        obs::reset();
        best
    };
    // measured AFTER tracing: catches a recorder leaking past its guard
    let off_secs = time_evaluate(ctx, model, workers, reps);
    assert!(!obs::enabled(), "enable guard must restore the disabled state");
    let disabled_ns_per_op = time_ns(200_000, || {
        let _span = obs::span("bench.disabled");
        obs::count("bench.disabled", 1);
        0
    });
    TracePoint {
        workers,
        off_samples_per_sec: n_samples as f64 / off_secs,
        on_samples_per_sec: n_samples as f64 / on_secs,
        trace_on_overhead_pct: (on_secs - off_secs) / off_secs * 100.0,
        disabled_regression: off_secs / base_secs,
        disabled_ns_per_op,
    }
}

struct RegistryPoint {
    /// ns for one pre-registered labeled counter inc + histogram record.
    cell_pair_ns: f64,
    /// ns for a `with()` label resolution + counter inc (the cold path
    /// serve deliberately avoids by pre-registering cells).
    lookup_inc_ns: f64,
}

/// One closed-loop serve pass over a fresh service (fresh cache, so every
/// request takes the full translate+execute hot path); times only the
/// query loop, not service start/stop.
fn time_serve(
    ctx: &EvalContext<'_>,
    requests: &[QueryRequest],
    static_check: bool,
    canonical_key: bool,
    tracing: bool,
) -> f64 {
    let config = ServeConfig::builder()
        .workers(2)
        .static_check(static_check)
        .canonical_cache_key(canonical_key)
        .request_tracing(tracing)
        .warehouse(tracing)
        .build()
        .unwrap();
    Service::run_with_methods(config, ctx, &[METHOD], |handle| {
        let started = Instant::now();
        for req in requests {
            match handle.query(req.clone()) {
                Ok(_) | Err(serve::QueryError::StaticRejected(_)) => {}
                Err(e) => panic!("served: {e}"),
            }
        }
        started.elapsed().as_secs_f64()
    })
}

/// One closed-loop serve option measured on vs off.
struct Paired {
    requests: usize,
    off_qps: f64,
    on_qps: f64,
    /// Median over the pairs of (on secs / off secs) - 1, as a percentage.
    overhead_pct: f64,
    /// Median over the pairs of (on secs - off secs) / requests, in µs:
    /// what the option adds to one request, whatever the rest of it costs.
    added_us_per_request: f64,
    /// Interquartile range of the same per-pair quantity, in µs: how
    /// finely this run could resolve it.
    added_us_iqr: f64,
}

/// Time the serve mini-workload with one option on vs off. The cost of an
/// option is a few µs against hundreds of µs of translate+execute, while
/// one closed-loop pass lasts only tens of ms — a single on/off ratio is
/// pure scheduler noise. So: back-to-back on/off pairs (drift cancels
/// within a pair), medians over the pairs (outlier passes drop out).
fn paired_serve(
    ctx: &EvalContext<'_>,
    requests: &[QueryRequest],
    reps: usize,
    static_check: bool,
    canonical_key: bool,
    tracing: bool,
) -> Paired {
    time_serve(ctx, requests, static_check, canonical_key, tracing); // warmup
    time_serve(ctx, requests, false, false, false); // warmup
    let pairs = reps.max(9);
    let (mut ratios, mut deltas) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    let (mut on_secs, mut off_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        let on = time_serve(ctx, requests, static_check, canonical_key, tracing);
        let off = time_serve(ctx, requests, false, false, false);
        on_secs = on_secs.min(on);
        off_secs = off_secs.min(off);
        ratios.push(on / off);
        deltas.push(on - off);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    deltas.sort_by(|a, b| a.total_cmp(b));
    let us_per_request = |secs: f64| secs / requests.len() as f64 * 1e6;
    Paired {
        requests: requests.len(),
        off_qps: requests.len() as f64 / off_secs,
        on_qps: requests.len() as f64 / on_secs,
        overhead_pct: (ratios[pairs / 2] - 1.0) * 100.0,
        added_us_per_request: us_per_request(deltas[pairs / 2]),
        added_us_iqr: us_per_request(deltas[pairs * 3 / 4] - deltas[pairs / 4]),
    }
}

/// Distinct (sample, variant) questions so a fresh serve cache never hits.
fn build_requests(corpus: &Corpus) -> Vec<QueryRequest> {
    corpus
        .dev
        .iter()
        .flat_map(|sample| {
            sample.variants.iter().map(|q| QueryRequest {
                method: METHOD.to_string(),
                db_id: sample.db_id.clone(),
                question: q.clone(),
                deadline: None,
                trace: None,
            })
        })
        .collect()
}

/// Seed and dev-split size of the corpus every closed-loop serve section
/// runs over. The tiny corpus yields ~35ms passes, too short to resolve a
/// few µs per request on a busy box; ~500 distinct requests stretch each
/// timed window to ~150ms. Cluster workers regenerate this exact corpus
/// from the pair.
const SERVE_CORPUS_SEED: u64 = 5;
const SERVE_DEV_SAMPLES: usize = 300;

fn serve_corpus() -> Corpus {
    let config =
        CorpusConfig { dev_samples: SERVE_DEV_SAMPLES, ..CorpusConfig::tiny(SERVE_CORPUS_SEED) };
    generate_corpus(CorpusKind::Spider, &config)
}

/// Schema catalogs pre-built per database, as in the serve admission path.
fn catalogs(corpus: &Corpus) -> std::collections::HashMap<&str, sqlcheck::Catalog> {
    corpus
        .databases
        .iter()
        .map(|(id, db)| (id.as_str(), sqlcheck::Catalog::from_database(&db.database)))
        .collect()
}

struct SqlcheckPoint {
    /// ns for one full static analysis of a gold query.
    analyze_ns_per_query: f64,
    /// The `static_check` admission stage on vs off.
    serve: Paired,
}

fn bench_sqlcheck(ctx: &EvalContext<'_>, iters: usize, reps: usize) -> SqlcheckPoint {
    let corpus = ctx.corpus;

    // --- micro: analyzer cost per gold query ---
    let catalogs = catalogs(corpus);
    let per_pass = corpus.dev.len();
    let pass_ns = time_ns(iters, || {
        corpus
            .dev
            .iter()
            .map(|s| sqlcheck::analyze(&catalogs[s.db_id.as_str()], &s.query).len())
            .sum()
    });
    let analyze_ns_per_query = pass_ns / per_pass as f64;

    // --- macro: closed-loop serving with the admission stage on vs off ---
    let serve = paired_serve(ctx, &build_requests(corpus), reps, true, false, false);
    SqlcheckPoint { analyze_ns_per_query, serve }
}

struct EquivPoint {
    /// ns to canonicalize one gold query under the full rule set with its
    /// catalog (the cost `sqlcheck equiv` and the match-kind recorder pay).
    canonicalize_ns_per_query: f64,
    /// Canonical vs normalized cache keys on a cold-cache workload.
    serve: Paired,
}

impl EquivPoint {
    /// What canonical keys may add to one request, in µs. A request derives
    /// its key once, under a subset of the rules timed above, so the true
    /// cost is at most one of those canonicalizations; the paired runs
    /// resolve it no finer than their own interquartile range. The gate is
    /// on this absolute cost, not on its share of a request — the share
    /// moves whenever translation gets faster or slower.
    fn added_us_budget(&self) -> f64 {
        self.canonicalize_ns_per_query / 1e3 + self.serve.added_us_iqr
    }
}

fn bench_equiv(ctx: &EvalContext<'_>, iters: usize, reps: usize) -> EquivPoint {
    let corpus = ctx.corpus;

    // --- micro: full-rule canonicalization per gold query ---
    let catalogs = catalogs(corpus);
    let per_pass = corpus.dev.len();
    let pass_ns = time_ns(iters, || {
        corpus
            .dev
            .iter()
            .map(|s| {
                sqlcheck::equiv::canonicalize(
                    &s.query,
                    sqlcheck::equiv::RuleSet::full(),
                    catalogs.get(s.db_id.as_str()),
                )
                .fired
                .len()
            })
            .sum()
    });
    let canonicalize_ns_per_query = pass_ns / per_pass as f64;

    // --- macro: closed-loop serving with canonical vs normalized cache
    // keys. Every request is distinct, so the cache never hits either way
    // and the difference isolates the extra key-derivation cost. ---
    let serve = paired_serve(ctx, &build_requests(corpus), reps, false, true, false);
    EquivPoint { canonicalize_ns_per_query, serve }
}

struct TracingPoint {
    /// ns for the ingress decision an *untraced* request pays: one
    /// `Option<&TraceStore>` branch. This is the whole disabled path.
    disabled_check_ns: f64,
    /// ns to mint a trace id, build the six pipeline spans, append them as
    /// one completed tree, and flush it into `trace_spans` — the enabled
    /// per-request bookkeeping in isolation (what the closed-loop gate
    /// allows a request to cost, see [`TracingPoint::added_us_budget`]).
    enabled_request_ns: f64,
    /// Per-request span trees plus warehouse persistence on vs off.
    serve: Paired,
}

impl TracingPoint {
    /// What tracing may add to one request, in µs: the request does the
    /// span bookkeeping timed above once and the warehouse persists off the
    /// request path, so the true cost is about one `enabled_request_ns`;
    /// the paired runs resolve it no finer than their own interquartile
    /// range. Absolute, like [`EquivPoint::added_us_budget`]: the share of
    /// a request it makes up moves whenever the rest of the request does.
    fn added_us_budget(&self) -> f64 {
        self.enabled_request_ns / 1e3 + self.serve.added_us_iqr
    }
}

fn bench_request_tracing(ctx: &EvalContext<'_>, iters: usize, reps: usize) -> TracingPoint {
    // --- micro: the disabled path — the exact branch the pipeline takes
    // when `request_tracing` is off ---
    let no_store: Option<&TraceStore> = None;
    let disabled_check_ns = time_ns(iters, || match std::hint::black_box(no_store) {
        Some(store) => store.next_span_id() as usize,
        None => 0,
    });

    // --- micro: the enabled path's bookkeeping, shaped like one real
    // request: its six spans (root + queue/translate/static_check/execute/
    // compare, attributes formatted as `Inner::complete` does) stored in
    // one append-and-complete, then the flusher's share — the shared
    // `serve::flush_warehouse` draining the tree into `trace_spans`. The
    // warehouse restarts every 1024 traces so memory stays bounded. ---
    let store = TraceStore::new("bench", 1024, Instant::now());
    let (mut warehouse, mut held) = (nl2sql360::EvalStore::new(), 0usize);
    let enabled_request_ns = time_ns(iters, || {
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

    // --- macro: closed-loop serving with per-request span trees AND the
    // warehouse flusher persisting them, vs both off ---
    let serve = paired_serve(ctx, &build_requests(ctx.corpus), reps, false, false, true);
    TracingPoint { disabled_check_ns, enabled_request_ns, serve }
}

struct ClusterPoint {
    requests: usize,
    clients: usize,
    inproc_qps: f64,
    one_worker_qps: f64,
    /// Median over back-to-back pairs of (1-worker cluster secs /
    /// in-process secs) - 1 as a percentage: what the scheduler hop
    /// (framing, loopback TCP, forward streams) costs per request.
    single_worker_overhead_pct: f64,
    /// 2-worker throughput, recorded but not gated: on a single-core box
    /// a second worker process cannot add throughput, and the bench must
    /// not fail for lack of hardware.
    two_worker_qps: f64,
}

/// Matched-concurrency closed loop against the in-process engine:
/// `clients` threads, one request in flight each — the same drive shape
/// [`time_cluster`] uses, so the ratio isolates the distribution tax.
fn time_inproc_concurrent(ctx: &EvalContext<'_>, requests: &[QueryRequest], clients: usize) -> f64 {
    let config = ServeConfig::builder().workers(2).build().unwrap();
    Service::run_with_methods(config, ctx, &[METHOD], |handle| {
        let chunk = requests.len().div_ceil(clients).max(1);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for chunk in requests.chunks(chunk) {
                scope.spawn(move || {
                    for req in chunk {
                        match handle.query(req.clone()) {
                            Ok(_) | Err(serve::QueryError::TranslationRefused) => {}
                            Err(e) => panic!("in-process query: {e}"),
                        }
                    }
                });
            }
        });
        started.elapsed().as_secs_f64()
    })
}

/// Boot an embedded scheduler plus `n_workers` embedded workers, drive
/// the same closed loop through real loopback TCP, and time only the
/// query window (boot, registration, and teardown stay off the clock).
fn time_cluster(
    requests: &[QueryRequest],
    clients: usize,
    n_workers: usize,
    corpus_seed: u64,
    dev_samples: usize,
) -> f64 {
    let (addr_tx, addr_rx) = std::sync::mpsc::sync_channel(1);
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let scheduler = std::thread::spawn(move || {
        let config = cluster::SchedulerConfig {
            admin_addr: Some("127.0.0.1:0".parse().expect("loopback literal parses")),
            streams_per_worker: clients,
            ..cluster::SchedulerConfig::default()
        };
        cluster::Scheduler::run(config, |handle| {
            let _ = addr_tx
                .send((handle.client_addr(), handle.admin_addr().expect("admin configured")));
            let _ = stop_rx.recv();
        })
    });
    let (client_addr, admin_addr) = addr_rx.recv().expect("scheduler binds");
    let mut worker_stops = Vec::new();
    let mut worker_joins = Vec::new();
    for i in 0..n_workers {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let worker_id = format!("bench-w{i}");
        let scheduler_addr = client_addr.to_string();
        worker_joins.push(std::thread::spawn(move || {
            let config = cluster::WorkerConfig {
                worker_id,
                scheduler: scheduler_addr,
                corpus_seed,
                corpus_dev_samples: Some(dev_samples),
                methods: vec![METHOD.to_string()],
                serve: ServeConfig::builder().workers(2).build().unwrap(),
                ..cluster::WorkerConfig::default()
            };
            cluster::Worker::run(config, |_| {
                let _ = rx.recv();
            })
        }));
        worker_stops.push(tx);
    }
    let registered = cluster::worker::wait_for(std::time::Duration::from_secs(60), || {
        matches!(serve::http::http_get(admin_addr, "/workers"),
            Ok((200, body)) if body.matches("\"worker_id\"").count() == n_workers)
    });
    assert!(registered, "cluster bench: workers never registered");

    let chunk = requests.len().div_ceil(clients).max(1);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for chunk in requests.chunks(chunk) {
            let addr = client_addr.to_string();
            scope.spawn(move || {
                let mut client = serve::proto::ClusterClient::connect(
                    &addr,
                    std::time::Duration::from_secs(5),
                )
                .expect("bench client connects");
                client
                    .set_reply_timeout(Some(std::time::Duration::from_secs(120)))
                    .expect("timeout set");
                for req in chunk {
                    match client.query(req.clone()).expect("cluster transport") {
                        Ok(_) | Err(serve::QueryError::TranslationRefused) => {}
                        Err(e) => panic!("cluster query: {e}"),
                    }
                }
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();

    drop(stop_tx);
    scheduler.join().expect("scheduler exits cleanly");
    drop(worker_stops);
    for j in worker_joins {
        j.join().expect("worker exits cleanly");
    }
    secs
}

fn bench_cluster(ctx: &EvalContext<'_>, reps: usize) -> ClusterPoint {
    let (corpus_seed, dev_samples) = (SERVE_CORPUS_SEED, SERVE_DEV_SAMPLES);
    let clients = 4;
    let requests = build_requests(ctx.corpus);

    time_cluster(&requests, clients, 1, corpus_seed, dev_samples); // warmup
    time_inproc_concurrent(ctx, &requests, clients); // warmup
    // Back-to-back pairs, gate on the median of per-pair ratios — the
    // same drift-cancelling shape `paired_serve` uses, because the
    // distribution tax (~tens of µs/request) rides on top of ~hundreds
    // of µs of translate+execute and single-shot ratios flap.
    let pairs = reps.max(5);
    let mut ratios = Vec::with_capacity(pairs);
    let mut cluster_secs = f64::INFINITY;
    let mut inproc_secs = f64::INFINITY;
    for _ in 0..pairs {
        let c = time_cluster(&requests, clients, 1, corpus_seed, dev_samples);
        let i = time_inproc_concurrent(ctx, &requests, clients);
        cluster_secs = cluster_secs.min(c);
        inproc_secs = inproc_secs.min(i);
        ratios.push(c / i);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = ratios[pairs / 2];
    let two_secs = time_cluster(&requests, clients, 2, corpus_seed, dev_samples);
    ClusterPoint {
        requests: requests.len(),
        clients,
        inproc_qps: requests.len() as f64 / inproc_secs,
        one_worker_qps: requests.len() as f64 / cluster_secs,
        single_worker_overhead_pct: (median_ratio - 1.0) * 100.0,
        two_worker_qps: requests.len() as f64 / two_secs,
    }
}

fn bench_registry(iters: usize) -> RegistryPoint {
    // The labeled hot path serve runs per completion.
    let registry = obs::registry::Registry::new();
    let counters = registry.counter_vec("bench_requests_total", "bench", &["method"]);
    let hists = registry.histogram_vec("bench_latency_us", "bench", &["method"]);
    let cell = counters.with(&[METHOD]);
    let cell_hist = hists.with(&[METHOD]);
    let cell_pair_ns = time_ns(iters, || {
        cell.inc();
        cell_hist.record(137);
        0
    });
    let lookup_inc_ns = time_ns(iters, || {
        counters.with(&[METHOD]).inc();
        0
    });
    RegistryPoint { cell_pair_ns, lookup_inc_ns }
}

fn main() {
    let args = parse_args();
    let cores = nl2sql360::default_workers();
    let reps = if args.quick { 1 } else { 3 };
    // Every measurement a --validate gate compares runs best-of-3 at a
    // fixed iteration count, --quick or not: single-shot ratios flap.
    let ratio_reps = 3;
    let plan_iters = 400;

    eprintln!("bench_eval: corpus evaluation sweep (cores available: {cores}) ...");
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let model = SimulatedModel::new(method_by_name(METHOD).expect("method exists"));
    let n_samples = corpus.dev.len();

    // warmup pass so lazily-built state does not bill the first point
    time_evaluate(&ctx, &model, 1, 1);
    let base = time_evaluate(&ctx, &model, 1, reps);
    let eval_points: Vec<EvalPoint> = WORKER_SWEEP
        .iter()
        .map(|&w| {
            let secs = if w == 1 { base } else { time_evaluate(&ctx, &model, w, reps) };
            let point = EvalPoint {
                workers: w,
                samples_per_sec: n_samples as f64 / secs,
                speedup_vs_1: base / secs,
            };
            eprintln!(
                "  workers={:<2} {:>9.0} samples/sec  speedup x{:.2}",
                point.workers, point.samples_per_sec, point.speedup_vs_1
            );
            point
        })
        .collect();

    eprintln!("bench_eval: compiled-plan microbenches ...");
    let plan_bench = bench_plans(plan_iters);
    for p in &plan_bench.plans {
        eprintln!(
            "  {:<15} interpreter {:>9.0}ns  compiled {:>9.0}ns  cache-off {:>9.0}ns  speedup x{:.2}",
            p.query, p.interpreter_ns, p.compiled_ns, p.cache_off_ns, p.speedup
        );
    }

    eprintln!("bench_eval: columnar execution (compiled path vs interpreter) ...");
    for p in &plan_bench.columnar {
        if p.fallback {
            eprintln!(
                "  {:<15} interpreter {:>9.0}ns  (compile fallback; excluded from aggregate)",
                p.query, p.interpreter_ns
            );
        } else {
            eprintln!(
                "  {:<15} interpreter {:>9.0}ns  columnar {:>9.0}ns  x{:.2}",
                p.query, p.interpreter_ns, p.columnar_ns, p.speedup_vs_interpreter
            );
        }
    }
    eprintln!(
        "  aggregate columnar speedup vs interpreter: x{:.2}",
        plan_bench.aggregate_speedup
    );

    eprintln!("bench_eval: observability overhead (tracing on/off) ...");
    // The pre-tracing baseline the disabled_regression gate divides by is
    // measured here, immediately before the traced passes, not taken from
    // the sweep above: the plan benches in between leave enough thermal /
    // scheduler drift on a shared box to flap a 5% ratio gate. (Still
    // before any tracing has run in this process, which is what matters.)
    let base4 = time_evaluate(&ctx, &model, 4, ratio_reps);
    let trace = bench_trace(&ctx, &model, n_samples, base4, ratio_reps);
    eprintln!(
        "  workers={} off {:>9.0} samples/sec  on {:>9.0} samples/sec  trace-on overhead {:+.1}%",
        trace.workers, trace.off_samples_per_sec, trace.on_samples_per_sec,
        trace.trace_on_overhead_pct
    );
    eprintln!(
        "  disabled path: x{:.3} vs pre-trace baseline, {:.1}ns per span+counter pair",
        trace.disabled_regression, trace.disabled_ns_per_op
    );

    eprintln!("bench_eval: registry recording overhead ...");
    let registry = bench_registry(if args.quick { 20_000 } else { 200_000 });
    eprintln!(
        "  micro: cell pair {:.1}ns  with()+inc {:.1}ns",
        registry.cell_pair_ns, registry.lookup_inc_ns
    );

    eprintln!("bench_eval: static-check overhead (sqlcheck analyzer + serve admission) ...");
    let serve_corpus = serve_corpus();
    let serve_ctx = EvalContext::new(&serve_corpus);
    let check = bench_sqlcheck(&serve_ctx, if args.quick { 40 } else { 200 }, ratio_reps);
    eprintln!("  micro: analyze {:.0}ns per gold query", check.analyze_ns_per_query);
    eprintln!(
        "  serve ({} requests): off {:>7.0} qps  on {:>7.0} qps  static-check overhead {:+.1}%",
        check.serve.requests, check.serve.off_qps, check.serve.on_qps, check.serve.overhead_pct
    );

    eprintln!("bench_eval: equivalence engine (canonicalizer + canonical cache keys) ...");
    let equiv = bench_equiv(&serve_ctx, if args.quick { 40 } else { 200 }, ratio_reps);
    eprintln!(
        "  micro: canonicalize {:.0}ns per gold query (full rule set)",
        equiv.canonicalize_ns_per_query
    );
    eprintln!(
        "  serve ({} requests): off {:>7.0} qps  on {:>7.0} qps  canonical-key overhead {:+.1}% \
         ({:+.1}us per request, budget {:.1}us)",
        equiv.serve.requests,
        equiv.serve.off_qps,
        equiv.serve.on_qps,
        equiv.serve.overhead_pct,
        equiv.serve.added_us_per_request,
        equiv.added_us_budget()
    );

    eprintln!("bench_eval: request-tracing + warehouse overhead (spans on/off) ...");
    let tracing =
        bench_request_tracing(&serve_ctx, if args.quick { 20_000 } else { 200_000 }, ratio_reps);
    eprintln!(
        "  micro: disabled ingress check {:.1}ns  enabled request bookkeeping {:.0}ns",
        tracing.disabled_check_ns, tracing.enabled_request_ns
    );
    eprintln!(
        "  serve ({} requests): off {:>7.0} qps  on {:>7.0} qps  tracing overhead {:+.1}% = {:+.1}us/request (budget {:.1}us)",
        tracing.serve.requests,
        tracing.serve.off_qps,
        tracing.serve.on_qps,
        tracing.serve.overhead_pct,
        tracing.serve.added_us_per_request,
        tracing.added_us_budget()
    );

    eprintln!("bench_eval: distributed serve overhead (scheduler + worker vs in-process) ...");
    let cluster = bench_cluster(&serve_ctx, ratio_reps);
    eprintln!(
        "  {} requests / {} clients: in-process {:>7.0} qps  1-worker cluster {:>7.0} qps  overhead {:+.1}%",
        cluster.requests, cluster.clients, cluster.inproc_qps, cluster.one_worker_qps,
        cluster.single_worker_overhead_pct
    );
    eprintln!(
        "  2-worker cluster: {:>7.0} qps (recorded; not gated on < 4 cores)",
        cluster.two_worker_qps
    );

    eprintln!("bench_eval: few-shot retrieval (inverted index vs brute-force scan) ...");
    let few_shot = few_shot::bench(ratio_reps);
    few_shot.print();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"method\": \"{METHOD}\", \"dev_samples\": {n_samples}, \"cores\": {cores}, \"quick\": {}}},",
        args.quick
    );
    let _ = writeln!(json, "  \"evaluate\": [");
    for (i, p) in eval_points.iter().enumerate() {
        let comma = if i + 1 < eval_points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"samples_per_sec\": {:.1}, \"speedup_vs_1\": {:.3}}}{comma}",
            p.workers, p.samples_per_sec, p.speedup_vs_1
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"plans\": [");
    for (i, p) in plan_bench.plans.iter().enumerate() {
        let comma = if i + 1 < plan_bench.plans.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"query\": \"{}\", \"interpreter_ns\": {:.0}, \"compiled_ns\": {:.0}, \"cache_off_ns\": {:.0}, \"speedup\": {:.3}}}{comma}",
            p.query, p.interpreter_ns, p.compiled_ns, p.cache_off_ns, p.speedup
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"columnar\": {{");
    let _ = writeln!(json, "    \"points\": [");
    for (i, p) in plan_bench.columnar.iter().enumerate() {
        let comma = if i + 1 < plan_bench.columnar.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"query\": \"{}\", \"interpreter_ns\": {:.0}, \"columnar_ns\": {:.0}, \"speedup_vs_interpreter\": {:.3}, \"fallback\": {}}}{comma}",
            p.query, p.interpreter_ns, p.columnar_ns, p.speedup_vs_interpreter, p.fallback
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"aggregate_speedup\": {:.3}",
        plan_bench.aggregate_speedup
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"trace\": {{");
    let _ = writeln!(
        json,
        "    \"workers\": {}, \"off_samples_per_sec\": {:.1}, \"on_samples_per_sec\": {:.1},",
        trace.workers, trace.off_samples_per_sec, trace.on_samples_per_sec
    );
    let _ = writeln!(
        json,
        "    \"trace_on_overhead_pct\": {:.2}, \"disabled_regression\": {:.4}, \"disabled_ns_per_op\": {:.1}",
        trace.trace_on_overhead_pct, trace.disabled_regression, trace.disabled_ns_per_op
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"registry\": {{");
    let _ = writeln!(
        json,
        "    \"cell_pair_ns\": {:.1}, \"lookup_inc_ns\": {:.1}",
        registry.cell_pair_ns, registry.lookup_inc_ns
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sqlcheck\": {{");
    let _ = writeln!(
        json,
        "    \"analyze_ns_per_query\": {:.1}, \"serve_requests\": {},",
        check.analyze_ns_per_query, check.serve.requests
    );
    let _ = writeln!(
        json,
        "    \"serve_off_qps\": {:.1}, \"serve_on_qps\": {:.1}, \"static_check_overhead_pct\": {:.2}",
        check.serve.off_qps, check.serve.on_qps, check.serve.overhead_pct
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"equiv\": {{");
    let _ = writeln!(
        json,
        "    \"canonicalize_ns_per_query\": {:.1}, \"serve_requests\": {},",
        equiv.canonicalize_ns_per_query, equiv.serve.requests
    );
    let _ = writeln!(
        json,
        "    \"serve_off_qps\": {:.1}, \"serve_on_qps\": {:.1}, \"canonical_key_overhead_pct\": {:.2},",
        equiv.serve.off_qps, equiv.serve.on_qps, equiv.serve.overhead_pct
    );
    let _ = writeln!(
        json,
        "    \"canonical_key_added_us\": {:.2}, \"canonical_key_added_us_budget\": {:.2}",
        equiv.serve.added_us_per_request,
        equiv.added_us_budget()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"tracing\": {{");
    let _ = writeln!(
        json,
        "    \"disabled_check_ns\": {:.1}, \"enabled_request_ns\": {:.1}, \"serve_requests\": {},",
        tracing.disabled_check_ns, tracing.enabled_request_ns, tracing.serve.requests
    );
    let _ = writeln!(
        json,
        "    \"serve_off_qps\": {:.1}, \"serve_on_qps\": {:.1}, \"tracing_overhead_pct\": {:.2},",
        tracing.serve.off_qps, tracing.serve.on_qps, tracing.serve.overhead_pct
    );
    let _ = writeln!(
        json,
        "    \"tracing_added_us\": {:.2}, \"tracing_added_us_budget\": {:.2}",
        tracing.serve.added_us_per_request,
        tracing.added_us_budget()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cluster\": {{");
    let _ = writeln!(
        json,
        "    \"requests\": {}, \"clients\": {}, \"inproc_qps\": {:.1},",
        cluster.requests, cluster.clients, cluster.inproc_qps
    );
    let _ = writeln!(
        json,
        "    \"one_worker_qps\": {:.1}, \"single_worker_overhead_pct\": {:.2}, \"two_worker_qps\": {:.1}",
        cluster.one_worker_qps, cluster.single_worker_overhead_pct, cluster.two_worker_qps
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"few_shot\": {{\n{}\n  }}", few_shot.json());
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);

    if args.validate {
        let mut failed = few_shot.fails_gate();
        for p in &plan_bench.plans {
            if p.speedup < 1.0 {
                eprintln!(
                    "FAIL: compiled plan slower than interpreter on {} (x{:.2})",
                    p.query, p.speedup
                );
                failed = true;
            }
        }
        for p in plan_bench.columnar.iter().filter(|p| !p.fallback) {
            if p.speedup_vs_interpreter < COLUMNAR_MIN_SPEEDUP {
                eprintln!(
                    "FAIL: columnar path only x{:.2} the interpreter on {} (floor: x{:.0})",
                    p.speedup_vs_interpreter, p.query, COLUMNAR_MIN_SPEEDUP
                );
                failed = true;
            }
        }
        // The 5x aggregate target assumes the vectorized loops keep the
        // core to themselves; on a 1-2 core box the measurement shares
        // the core with the allocator-heavy interpreter passes it is
        // compared against, so the ratio is recorded but gated only
        // where the hardware can meet it (same convention as the other
        // ratio gates below).
        if cores >= 4 {
            if plan_bench.aggregate_speedup < 5.0 {
                eprintln!(
                    "FAIL: aggregate columnar speedup x{:.2} below the 5x target",
                    plan_bench.aggregate_speedup
                );
                failed = true;
            }
        } else {
            eprintln!(
                "note: {cores} core(s) available; aggregate columnar speedup (x{:.2}) \
                 recorded but the >= 5x target is only enforced on machines with >= 4 cores",
                plan_bench.aggregate_speedup
            );
        }
        if trace.disabled_regression > 1.05 {
            eprintln!(
                "FAIL: disabled-path evaluation regressed x{:.3} after tracing ran \
                 (recorder leaking past its guard?)",
                trace.disabled_regression
            );
            failed = true;
        }
        if trace.disabled_ns_per_op > 250.0 {
            eprintln!(
                "FAIL: a disabled span+counter pair costs {:.0}ns (budget: 250ns)",
                trace.disabled_ns_per_op
            );
            failed = true;
        }
        if registry.cell_pair_ns > 250.0 {
            eprintln!(
                "FAIL: a labeled counter+histogram record pair costs {:.0}ns (budget: 250ns)",
                registry.cell_pair_ns
            );
            failed = true;
        }
        if check.serve.overhead_pct > 5.0 {
            eprintln!(
                "FAIL: static-check admission costs {:.1}% of serve throughput (budget: 5%)",
                check.serve.overhead_pct
            );
            failed = true;
        }
        if equiv.serve.added_us_per_request > equiv.added_us_budget() {
            eprintln!(
                "FAIL: canonical cache keys add {:.1}us per request (budget: {:.1}us = \
                 canonicalize_ns_per_query + the pairs' IQR)",
                equiv.serve.added_us_per_request,
                equiv.added_us_budget()
            );
            failed = true;
        }
        if tracing.serve.added_us_per_request > tracing.added_us_budget() {
            eprintln!(
                "FAIL: request tracing + warehouse add {:.1}us per request (budget: {:.1}us = \
                 enabled_request_ns + the pairs' IQR)",
                tracing.serve.added_us_per_request,
                tracing.added_us_budget()
            );
            failed = true;
        }
        if tracing.disabled_check_ns > 25.0 {
            eprintln!(
                "FAIL: the untraced ingress check costs {:.1}ns (budget: 25ns — it is one \
                 Option branch)",
                tracing.disabled_check_ns
            );
            failed = true;
        }
        // Like the evaluate-speedup gate below: the scheduler hop's cost
        // (framing, forward streams, extra threads) can only overlap with
        // engine work when there are spare cores to run it on. On a
        // single core every context switch and JSON frame is stolen from
        // the same core that executes queries, so the budget is recorded
        // but only enforced where the hardware can meet it.
        if cores >= 4 {
            if cluster.single_worker_overhead_pct > 5.0 {
                eprintln!(
                    "FAIL: the scheduler hop costs {:.1}% of closed-loop throughput vs \
                     in-process serve (budget: 5%)",
                    cluster.single_worker_overhead_pct
                );
                failed = true;
            }
        } else {
            eprintln!(
                "note: {cores} core(s) available; single-worker cluster overhead \
                 ({:+.1}%) recorded but the <= 5% budget is only enforced on machines \
                 with >= 4 cores",
                cluster.single_worker_overhead_pct
            );
        }
        let at4 = eval_points.iter().find(|p| p.workers == 4).expect("4 in sweep");
        if cores >= 4 {
            if at4.speedup_vs_1 < 2.0 {
                eprintln!(
                    "FAIL: {} cores but only x{:.2} evaluate speedup at 4 workers",
                    cores, at4.speedup_vs_1
                );
                failed = true;
            }
        } else {
            eprintln!(
                "note: {cores} core(s) available; 4-worker speedup (x{:.2}) recorded but the \
                 >=2x target is only enforced on machines with >= 4 cores",
                at4.speedup_vs_1
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!("validation passed");
    }
}
