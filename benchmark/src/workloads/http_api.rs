//! `http_api`: the `serve_zipf` service behind its HTTP endpoint.
//!
//! One closed-loop connection issues, per ten ops, six raw-SQL
//! `POST /v1/sql` (dev gold SQL text against its database), three NL
//! `POST /v1/sql` and one `GET /healthz`, through `serve::http`'s own
//! clients. An op is one HTTP exchange. One connection, because the
//! endpoint answers serially behind a 10 ms accept poll: a single caller
//! sees a stable latency, two phase-lock chaotically.

use super::serve_zipf;
use crate::layers::{p50_us, Layers};
use crate::load::{self, Window};
use crate::report::Report;
use crate::seeded::SplitMix64;
use crate::setup::{self, timed, Args, Outcome, Phase, SetupTime};
use crate::stages::{
    names, run_text_staged, ExecProfile, Expected, GateCounts, Pipeline, RequestSet,
};
use crate::trace::{Node, Recorder};
use datagen::CorpusKind;
use nl2sql360::EvalContext;
use serde::Value;
use serve::http::{http_get, http_post};
use serve::ServiceHandle;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "http_api";

/// Ops in the traced replay: ten cycles of the mix. Every exchange costs
/// the accept poll, so 512 would not fit the run.
const SLICE: usize = 100;

/// The position of an op in its cycle of ten decides its kind.
const CYCLE: [Kind; 10] = {
    use Kind::*;
    [RawSql, RawSql, Nl, RawSql, RawSql, Nl, RawSql, RawSql, Nl, Healthz]
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    RawSql,
    Nl,
    Healthz,
}

/// One HTTP exchange to issue.
enum Exchange {
    /// Gold SQL of dev sample `sample`, as text, against its database.
    RawSql {
        sample: usize,
        body: String,
    },
    /// Request `request` of the set.
    Nl {
        request: usize,
        body: String,
    },
    Healthz,
}

fn json_body(fields: &[(&str, &str)]) -> String {
    let map = fields.iter().map(|(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect();
    serde_json::to_string(&Value::Map(map)).expect("strings serialize")
}

/// The op sequence: kinds by position, targets drawn from the seed.
fn exchanges(pipeline: &Pipeline<'_>, set: &RequestSet, seed: u64, n: usize) -> Vec<Exchange> {
    let dev = &pipeline.ctx().corpus.dev;
    let mut rng = SplitMix64::new(seed, 2);
    (0..n)
        .map(|i| match CYCLE[i % CYCLE.len()] {
            Kind::RawSql => {
                let sample = rng.below(dev.len());
                let s = &dev[sample];
                Exchange::RawSql { sample, body: json_body(&[("sql", &s.sql), ("db", &s.db_id)]) }
            }
            Kind::Nl => {
                let request = rng.below(set.requests.len());
                let r = &set.requests[request];
                let body = json_body(&[
                    ("question", &r.question),
                    ("db_id", &r.db_id),
                    ("method", &r.method),
                ]);
                Exchange::Nl { request, body }
            }
            Kind::Healthz => Exchange::Healthz,
        })
        .collect()
}

/// What came back from one exchange.
struct Answer {
    took: Duration,
    status: u16,
    body: String,
}

fn issue(addr: SocketAddr, exchange: &Exchange) -> std::io::Result<Answer> {
    let (reply, took) = timed(|| match exchange {
        Exchange::RawSql { body, .. } | Exchange::Nl { body, .. } => {
            http_post(addr, "/v1/sql", body)
        }
        Exchange::Healthz => http_get(addr, "/healthz"),
    });
    reply.map(|(status, body)| Answer { took, status, body })
}

/// Whether `answer` is what a correct endpoint sends for `exchange`: only
/// 200s, or 422 for an NL question the reference refuses or rejects, and
/// body fields equal to the in-process reference.
fn correct(ctx: &EvalContext<'_>, set: &RequestSet, exchange: &Exchange, answer: &Answer) -> bool {
    let body = serde_json::from_str::<Value>(&answer.body).ok();
    let field = |key: &str| body.as_ref().and_then(|v| v.get(key).cloned());
    match exchange {
        Exchange::Healthz => answer.status == 200 && answer.body == "ok\n",
        Exchange::RawSql { sample, .. } => {
            let gold = ctx.gold_result(*sample);
            answer.status == 200
                && field("row_count") == Some(Value::Int(gold.rows.len() as i64))
                && field("work") == Some(Value::Int(gold.work as i64))
        }
        Exchange::Nl { request, .. } => match &set.expected[*request] {
            Expected::Answer { ex, em, pred_sql } => {
                answer.status == 200
                    && field("ex") == Some(Value::Bool(*ex))
                    && field("em") == Some(Value::Bool(*em))
                    && field("pred_sql") == Some(Value::Str(pred_sql.clone()))
            }
            Expected::Refused | Expected::Rejected => answer.status == 422,
        },
    }
}

/// Issue and check one exchange; a transport error is a failed op.
fn exchange_checked(
    addr: SocketAddr,
    ctx: &EvalContext<'_>,
    set: &RequestSet,
    exchange: &Exchange,
) -> (Duration, bool, usize) {
    let started = Instant::now();
    match issue(addr, exchange) {
        Ok(answer) => (answer.took, correct(ctx, set, exchange, &answer), answer.body.len()),
        Err(_) => (started.elapsed(), false, 0),
    }
}

/// The stages the endpoint runs for `exchange`, replayed.
fn replay(
    handle: &ServiceHandle<'_>,
    pipeline: &Pipeline<'_>,
    set: &RequestSet,
    exchange: &Exchange,
) -> Vec<Node> {
    let mut stages = Vec::new();
    match exchange {
        Exchange::Healthz => {}
        Exchange::RawSql { sample, body: _ } => {
            let s = &pipeline.ctx().corpus.dev[*sample];
            let _ = pipeline.run_raw_sql(&s.db_id, &s.sql, &mut stages);
        }
        Exchange::Nl { request, .. } => {
            // the handler queries the pipeline in-process, then executes
            // the predicted SQL text once more for the rows it returns
            let (reply, took) = timed(|| handle.query(set.requests[*request].clone()));
            let hit = reply.as_ref().is_ok_and(|r| r.cache_hit);
            let mut inner = Vec::new();
            let op = set.ops[*request];
            pipeline.run(op, hit, &mut inner, &mut ExecProfile::default());
            stages.push(Node {
                name: names::SERVE_QUERY,
                start_ns: None,
                dur_ns: took.as_nanos() as u64,
                children: inner,
            });
            if let Some(r) = reply.as_ref().ok().filter(|r| r.exec_failure.is_none()) {
                let _ = run_text_staged(&pipeline.db(op).database, &r.pred_sql, &mut stages);
            }
        }
    }
    stages
}

/// Set up, then do what `phase` asks.
pub fn run(args: &Args, phase: Phase) -> (SetupTime, Outcome) {
    let (corpus, gen) = setup::generate(setup::spider());
    let (ctx, context) = timed(|| EvalContext::new(&corpus));
    let ((pipeline, set), reference) = timed(|| {
        let pipeline = serve_zipf::pipeline(&ctx);
        let set = pipeline.request_set();
        (pipeline, set)
    });
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal parses");
    let config = serve_zipf::config().admin_addr(loopback).build().expect("a valid serve config");

    serve_zipf::with_service(config, &ctx, |handle, boot| {
        let addr = handle.admin_addr().expect("the admin endpoint was configured");
        let setup = SetupTime::ended(gen, context, reference, boot);
        let outcome = match phase {
            Phase::Measure => {
                // enough ops for warm-up + window at one per accept poll, twice over
                let n = ((args.seconds + 1.0) * 250.0) as usize;
                let ops = exchanges(&pipeline, &set, args.seed, n);
                let window = load::closed_loop(
                    1,
                    args.warmup(),
                    args.window(),
                    |_| 0usize,
                    |next| {
                        let (took, ok, _) =
                            exchange_checked(addr, &ctx, &set, &ops[*next % ops.len()]);
                        *next += 1;
                        (took, ok)
                    },
                );
                let admitted = handle.metrics().rejected_overloaded == 0;
                Outcome::Round(Window { invariants_held: admitted, ..window })
            }
            Phase::Trace => {
                let mut layers = Layers::new();
                layers.setup(CorpusKind::Spider, &setup);
                let ops = exchanges(&pipeline, &set, args.seed, args.slice.min(SLICE));
                let (mut attempted, mut failed) = (0, 0);
                let mut rec = Recorder::new();
                let mut body_bytes = Vec::new();
                let mut whole_call = |traced: bool| -> Vec<(Kind, u64)> {
                    let epoch = Instant::now();
                    let now = || epoch.elapsed().as_nanos() as u64;
                    ops.iter()
                        .enumerate()
                        .map(|(i, exchange)| {
                            let op_start = now();
                            let (took, ok, bytes) = exchange_checked(addr, &ctx, &set, exchange);
                            let call_end = now();
                            attempted += 1;
                            failed += u64::from(!ok);
                            let took = took.as_nanos() as u64;
                            if traced {
                                body_bytes.push(bytes as u64);
                                let stages = replay(handle, &pipeline, &set, exchange);
                                let whole = Node::in_place(
                                    names::HTTP_EXCHANGE,
                                    call_end - took,
                                    call_end,
                                    stages,
                                );
                                rec.op(op_start, call_end, &[whole]);
                            }
                            (CYCLE[i % CYCLE.len()], took)
                        })
                        .collect()
                };
                whole_call(false);
                let untraced = whole_call(false);
                let traced = whole_call(true);
                let all = |v: &[(Kind, u64)]| v.iter().map(|&(_, ns)| ns).collect::<Vec<_>>();
                layers.trace_overhead(&all(&untraced), &all(&traced));
                let nl_exchange: Vec<u64> =
                    traced.iter().filter(|(k, _)| *k == Kind::Nl).map(|&(_, ns)| ns).collect();
                layers.set(
                    "serve.http_overhead_us",
                    p50_us(&nl_exchange) - p50_us(&rec.durations(names::SERVE_QUERY)),
                    nl_exchange.len() as u64,
                );
                layers.set(
                    "serve.http_body_bytes",
                    crate::stats::mean(&body_bytes),
                    body_bytes.len() as u64,
                );
                let probes: Vec<u64> = (0..30)
                    .filter_map(|_| issue(addr, &Exchange::Healthz).ok())
                    .map(|a| a.took.as_nanos() as u64)
                    .collect();
                failed += 30 - probes.len() as u64;
                attempted += 30;
                layers.set_p50_us("serve.http_probe_us", &probes);
                layers.set_p50_us("serve.dispatch_us", &rec.self_times_of(names::SERVE_QUERY));

                layers.service(&handle.metrics());

                // exact counts over what the slice executes: raw gold SQL
                // and the NL questions' predictions
                let mut profile = ExecProfile::default();
                let mut gates = GateCounts::default();
                let mut nl = Vec::new();
                for exchange in &ops {
                    match exchange {
                        Exchange::Healthz => {}
                        Exchange::RawSql { sample, .. } => {
                            let s = &corpus.dev[*sample];
                            let _ = profile.run(&corpus.db(s).database, &s.query, &mut Vec::new());
                        }
                        Exchange::Nl { request, .. } => {
                            nl.push(*request);
                            pipeline.profile(set.ops[*request], &mut profile, &mut gates);
                        }
                    }
                }
                layers.exec_profile(&profile);
                layers.gates(&gates);
                let (ex_total, em_total) = set.ex_em_totals(nl.iter().copied());
                layers.set("ex_total", ex_total as f64, nl.len() as u64);
                layers.set("em_total", em_total as f64, nl.len() as u64);
                layers.spans(NAME, &rec, &args.out_dir).expect("trace file is writable");
                Outcome::Traced(Report {
                    attempted,
                    failed,
                    invariants_held: true,
                    metrics: layers.into_metrics(),
                    beside: Vec::new(),
                })
            }
        };
        (setup, outcome)
    })
}
