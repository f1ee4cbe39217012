//! `eval_fewshot` and `eval_light`: corpus evaluation, the paper's core
//! operation. An op is one dev sample; a pass evaluates the first
//! `SUBSET` dev samples of the corpus, in an order drawn from the seed,
//! with every method of the workload through
//! `EvalContext::evaluate_with` at `workers = nproc`.

use crate::layers::Layers;
use crate::load::{self, Window};
use crate::machine::{self, Observed};
use crate::report::Report;
use crate::seeded::{permutation, SplitMix64};
use crate::setup::{self, timed, Args, Outcome, Phase, SetupTime};
use crate::stages::{self, names, ExecProfile, Expected, Key, NlOp, Pipeline};
use crate::trace::{Node, Recorder};
use datagen::{CorpusConfig, CorpusKind};
use modelzoo::modules::FewShotIndex;
use modelzoo::SimulatedModel;
use nl2sql360::{EvalContext, EvalLog, EvalOptions};
use std::time::{Duration, Instant};

/// Dev samples per method per pass (fewer when the run asks for a shorter
/// replay slice, as `--quick` does). A pass then takes about a second, so
/// a run holds enough passes for a steady median.
const SUBSET: usize = 256;

/// What tells the two evaluation workloads apart.
pub struct EvalSpec {
    /// Workload name.
    pub name: &'static str,
    corpus: fn() -> (CorpusKind, CorpusConfig),
    methods: &'static [&'static str],
    /// The method retrieves few-shot examples by similarity, so
    /// `FewShotIndex::select` is worth timing on its own.
    few_shot: bool,
}

/// SuperSQL over Spider: few-shot retrieval over the 7000-question
/// training pool makes `modelzoo` nearly all of a sample's time.
pub const FEWSHOT: EvalSpec = EvalSpec {
    name: "eval_fewshot",
    corpus: setup::spider,
    methods: &["SuperSQL"],
    few_shot: true,
};

/// The four light methods over BIRD: translation is cheap, so `minidb`
/// execution, EX/EM comparison and the evaluator's fan-out dominate.
pub const LIGHT: EvalSpec = EvalSpec {
    name: "eval_light",
    corpus: setup::bird,
    methods: &stages::LIGHT_METHODS,
    few_shot: false,
};

fn log_json(log: Option<EvalLog>) -> String {
    let log = log.expect("every method of the workload runs on its corpus");
    serde_json::to_string(&log).expect("an EvalLog serializes")
}

/// One pass: every method once. Returns the time inside `evaluate_with`
/// and how many methods' logs differ from the sequential reference.
fn pass(
    ctx: &EvalContext<'_>,
    models: &[SimulatedModel],
    opts: &EvalOptions,
    reference: &[String],
) -> (Duration, usize) {
    let mut spent = Duration::ZERO;
    let mut wrong = 0;
    for (model, expect) in models.iter().zip(reference) {
        let (log, took) = timed(|| ctx.evaluate_with(model, opts));
        spent += took;
        wrong += usize::from(&log_json(log) != expect);
    }
    (spent, wrong)
}

/// Set up, then do what `phase` asks.
pub fn run(spec: &EvalSpec, args: &Args, phase: Phase) -> (SetupTime, Outcome) {
    let subset = SUBSET.min(args.slice);
    let (kind, config) = setup::dev_prefix((spec.corpus)(), subset);
    let (mut corpus, gen) = setup::generate((kind, config));
    // which worker claims which sample, and when, follows the order
    let order = permutation(subset, &mut SplitMix64::new(args.seed, 0));
    corpus.dev = order.iter().map(|&i| corpus.dev[i].clone()).collect();
    let (ctx, context) = timed(|| EvalContext::new(&corpus));
    let models = stages::models(spec.methods);
    let sequential = EvalOptions::new().subset(subset).workers(1);
    // The reference every later log must equal byte for byte.
    let (reference, reference_took) = timed(|| {
        models.iter().map(|m| log_json(ctx.evaluate_with(m, &sequential))).collect::<Vec<_>>()
    });
    let setup = SetupTime::ended(gen, context, reference_took, Duration::ZERO);
    let parallel = EvalOptions::new().subset(subset).workers(load::nproc());
    let ops_per_pass = (models.len() * subset) as u64;

    let outcome = match phase {
        Phase::Measure => {
            // no warm-up pass: the sequential reference just ran every sample
            // the machine's kernel is timed before every pass and after the last
            let mut pass_ns = Vec::new();
            let mut wrong_passes = 0;
            let mut seen = Observed { bursts: vec![machine::burst()], ..Observed::default() };
            while seen.wall < args.window() {
                let (cpu, started) = (machine::cpu_time(), Instant::now());
                let (spent, wrong) = pass(&ctx, &models, &parallel, &reference);
                seen.wall += started.elapsed();
                seen.cpu += machine::cpu_time() - cpu;
                seen.bursts.push(machine::burst());
                pass_ns.push(spent.as_nanos() as u64);
                wrong_passes += u64::from(wrong > 0);
            }
            Outcome::Round(Window::from_passes(pass_ns, ops_per_pass, wrong_passes, seen))
        }
        Phase::Trace => {
            let mut layers = Layers::new();
            layers.setup(kind, &setup);
            let mut wrong_logs = 0;

            // workers(1) against workers(nproc), adjacent passes
            let (mut seq_ns, mut par_ns) = (Vec::new(), Vec::new());
            let started = Instant::now();
            while seq_ns.is_empty() || started.elapsed() < args.part(0.4) {
                let (seq, w1) = pass(&ctx, &models, &sequential, &reference);
                let (par, w2) = pass(&ctx, &models, &parallel, &reference);
                seq_ns.push(seq.as_nanos() as f64);
                par_ns.push(par.as_nanos() as f64);
                wrong_logs += w1 + w2;
            }
            let untraced_ns = crate::stats::median(&seq_ns);
            layers.set(
                "nl2sql360.parallel_speedup",
                untraced_ns / crate::stats::median(&par_ns),
                seq_ns.len() as u64,
            );

            // the traced pass: each method's sequential evaluation timed in
            // place, then its stages replayed sample by sample
            let pipeline = Pipeline::new(&ctx, spec.methods, false, Key::None);
            let mut rec = Recorder::new();
            let mut profile = ExecProfile::default();
            let (mut ex_total, mut em_total, mut wrong_records, mut replayed) = (0, 0, 0, 0u64);
            let mut traced_ns = 0;
            let epoch = Instant::now();
            let now = || epoch.elapsed().as_nanos() as u64;
            for (method, expect) in reference.iter().enumerate() {
                let op_start = now();
                let log = ctx.evaluate_with(&models[method], &sequential);
                let call_end = now();
                traced_ns += call_end - op_start;
                let log = log.expect("every method of the workload runs on its corpus");
                let mut stages = Vec::new();
                for (sample, record) in log.records.iter().enumerate() {
                    for (variant, got) in record.variants.iter().enumerate() {
                        let op = NlOp { method, sample, variant };
                        let expected = pipeline.run(op, false, &mut stages, &mut profile);
                        let scored = Expected::Answer {
                            ex: got.ex,
                            em: got.em,
                            pred_sql: got.pred_sql.clone(),
                        };
                        replayed += 1;
                        wrong_records += u64::from(expected != scored);
                        ex_total += u64::from(got.ex);
                        em_total += u64::from(got.em);
                    }
                }
                wrong_logs += usize::from(&log_json(Some(log)) != expect);
                let whole = Node::in_place(names::EVALUATE, op_start, call_end, stages);
                rec.op(op_start, call_end, &[whole]);
            }
            layers.set("ex_total", ex_total as f64, replayed);
            layers.set("em_total", em_total as f64, replayed);
            layers.exec_profile(&profile);
            layers.set(
                "trace_overhead_pct",
                (traced_ns as f64 / untraced_ns - 1.0) * 100.0,
                seq_ns.len() as u64,
            );

            if spec.few_shot {
                let index = FewShotIndex::new(&corpus.train);
                let select_ns: Vec<u64> = corpus.dev[..subset]
                    .iter()
                    .flat_map(|s| &s.variants)
                    .map(|q| timed(|| std::hint::black_box(index.select(q, 5))).1.as_nanos() as u64)
                    .collect();
                layers.set_p50_us("modelzoo.few_shot_select_us", &select_ns);
            }

            layers.spans(spec.name, &rec, &args.out_dir).expect("trace file is writable");
            // evaluate_with's own time per sample: fan-out, record building, merge
            let evaluate_self: u64 = rec.self_times_of(names::EVALUATE).iter().sum();
            layers.set(
                "nl2sql360.overhead_us",
                evaluate_self as f64 / 1e3 / ops_per_pass as f64,
                ops_per_pass,
            );
            Outcome::Traced(Report {
                attempted: replayed,
                failed: wrong_records + (wrong_logs * subset) as u64,
                invariants_held: true,
                metrics: layers.into_metrics(),
                beside: Vec::new(),
            })
        }
    };
    (setup, outcome)
}
