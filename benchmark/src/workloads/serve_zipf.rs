//! `serve_zipf`: the in-process service under a skewed request mix.
//!
//! Closed-loop callers draw Zipf(0.8) from every distinct Spider dev
//! question, the four light methods dealt round-robin, against a service
//! with the static check and the canonical cache key on and an execution
//! cache of 256 entries — small against the request population, so hits
//! and misses both carry weight. An op is one `ServiceHandle::query`.

use crate::layers::Layers;
use crate::load::{self, Window};
use crate::report::Report;
use crate::seeded::{permutation, SplitMix64, Zipf};
use crate::setup::{self, timed, Args, Outcome, Phase, SetupTime, CORPUS_SEED};
use crate::stages::{names, ExecProfile, Key, Pipeline, RequestSet, LIGHT_METHODS};
use crate::stats;
use crate::trace::{Node, Recorder};
use datagen::CorpusKind;
use nl2sql360::EvalContext;
use serve::{ServeConfig, ServeConfigBuilder, Service, ServiceHandle};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve_zipf";

/// Zipf exponent of the request popularity.
const SKEW: f64 = 0.8;

/// The service under test; `http_api` runs the same one behind HTTP.
pub fn config() -> ServeConfigBuilder {
    ServeConfig::builder()
        .static_check(true)
        .canonical_cache_key(true)
        .cache_shards(8)
        .cache_capacity_per_shard(32)
}

/// The stages that service runs, for the reference and the replay.
pub fn pipeline<'a>(ctx: &'a EvalContext<'a>) -> Pipeline<'a> {
    Pipeline::new(ctx, &LIGHT_METHODS, true, Key::Canonical)
}

/// Start the light-method service and hand `f` its handle and how long
/// it took to come up.
pub fn with_service<R>(
    config: ServeConfig,
    ctx: &EvalContext<'_>,
    f: impl FnOnce(&ServiceHandle<'_>, Duration) -> R,
) -> R {
    let booting = Instant::now();
    Service::run_with_methods(config, ctx, &LIGHT_METHODS, |handle| f(handle, booting.elapsed()))
}

/// Which request a caller issues next: a Zipf rank through a shuffled
/// popularity order, so the hot requests are not simply the first
/// samples. The order is fixed with the corpus: which requests are hot
/// decides what the cache holds and how costly the miss stream is, and
/// between orders throughput moved by a third. `--seed` drives the draws.
struct Mix {
    order: Vec<usize>,
    zipf: Zipf,
}

impl Mix {
    fn new(requests: usize) -> Self {
        Mix {
            order: permutation(requests, &mut SplitMix64::new(CORPUS_SEED, 1)),
            zipf: Zipf::new(requests, SKEW),
        }
    }

    fn draw(&self, rng: &mut SplitMix64) -> usize {
        self.order[self.zipf.sample(rng)]
    }
}

/// One timed `query` of request `i`, checked against its expected reply.
fn query(handle: &ServiceHandle<'_>, set: &RequestSet, i: usize) -> (Duration, bool, bool) {
    let request = set.requests[i].clone();
    let (reply, took) = timed(|| handle.query(request));
    let hit = reply.as_ref().is_ok_and(|r| r.cache_hit);
    (took, set.expected[i].matches(&reply), hit)
}

/// Closed-loop callers against `handle`.
fn drive(
    handle: &ServiceHandle<'_>,
    set: &RequestSet,
    mix: &Mix,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Window {
    load::closed_loop(
        load::callers(),
        warmup,
        window,
        |caller| SplitMix64::new(seed, 10 + caller as u64),
        |rng| {
            let (took, ok, _) = query(handle, set, mix.draw(rng));
            (took, ok)
        },
    )
}

/// Set up, then do what `phase` asks.
pub fn run(args: &Args, phase: Phase) -> (SetupTime, Outcome) {
    let (corpus, gen) = setup::generate(setup::spider());
    let (ctx, context) = timed(|| EvalContext::new(&corpus));
    let ((pipeline, set), reference) = timed(|| {
        let pipeline = pipeline(&ctx);
        let set = pipeline.request_set();
        (pipeline, set)
    });
    let mix = Mix::new(set.ops.len());
    let build = |b: ServeConfigBuilder| b.build().expect("a valid serve config");

    let (setup, round) = with_service(build(config()), &ctx, |handle, boot| {
        let setup = SetupTime::ended(gen, context, reference, boot);
        let round = (phase == Phase::Measure).then(|| {
            let window = drive(handle, &set, &mix, args.seed, args.warmup(), args.window());
            Window { invariants_held: handle.metrics().rejected_overloaded == 0, ..window }
        });
        (setup, round) // the traced run uses fresh services, below
    });
    if let Some(window) = round {
        return (setup, Outcome::Round(window));
    }

    let mut layers = Layers::new();
    layers.setup(CorpusKind::Spider, &setup);
    let mut attempted = 0;
    let mut failed = 0;

    // Loaded rounds on fresh services, request tracing + warehouse off then
    // on, adjacent so drift hits both sides of a pair.
    let pairs = 3;
    let round = args.part(0.5) / (2 * pairs);
    let mut overhead_pct = Vec::new();
    for pair in 0..pairs {
        let mut rate = [0.0; 2];
        for (side, traced) in [false, true].into_iter().enumerate() {
            let cfg = build(config().request_tracing(traced).warehouse(traced));
            with_service(cfg, &ctx, |handle, _| {
                let seed = args.seed + u64::from(pair);
                let samples = drive(handle, &set, &mix, seed, round / 4, round * 3 / 4);
                attempted += samples.latency_ns.len() as u64;
                failed += samples.failed;
                rate[side] = stats::median(&samples.rates);
                if !traced && pair == pairs - 1 {
                    layers.service(&handle.metrics());
                }
            });
        }
        overhead_pct.push((rate[0] / rate[1] - 1.0) * 100.0);
    }
    layers.set("serve.tracing_overhead_pct", stats::median(&overhead_pct), u64::from(pairs));

    // The single-caller slice: the same draws warm, untraced, then traced.
    let slice: Vec<usize> = {
        let mut rng = SplitMix64::new(args.seed, 100);
        (0..args.slice).map(|_| mix.draw(&mut rng)).collect()
    };
    let mut rec = Recorder::new();
    with_service(build(config()), &ctx, |handle, _| {
        let mut whole_call = |traced: bool| -> Vec<u64> {
            let epoch = Instant::now();
            let now = || epoch.elapsed().as_nanos() as u64;
            slice
                .iter()
                .map(|&i| {
                    let op_start = now();
                    let (took, ok, hit) = query(handle, &set, i);
                    let call_end = now();
                    attempted += 1;
                    failed += u64::from(!ok);
                    if traced {
                        let mut stages = Vec::new();
                        pipeline.run(set.ops[i], hit, &mut stages, &mut ExecProfile::default());
                        let took = took.as_nanos() as u64;
                        let whole =
                            Node::in_place(names::SERVE_QUERY, call_end - took, call_end, stages);
                        rec.op(op_start, call_end, &[whole]);
                    }
                    took.as_nanos() as u64
                })
                .collect()
        };
        whole_call(false); // warm: brings the cache to the slice's steady state
        let untraced = whole_call(false);
        let traced = whole_call(true);
        layers.trace_overhead(&untraced, &traced);
    });
    layers.spans(NAME, &rec, &args.out_dir).expect("trace file is writable");
    layers.set_p50_us("serve.dispatch_us", &rec.self_times_of(names::SERVE_QUERY));

    layers.nl_counts(&pipeline, &set, &slice);

    let report = Report {
        attempted,
        failed,
        invariants_held: true,
        metrics: layers.into_metrics(),
        beside: Vec::new(),
    };
    (setup, Outcome::Traced(report))
}
