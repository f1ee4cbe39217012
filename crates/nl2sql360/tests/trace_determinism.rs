//! Observability must be outcome-neutral: an evaluation with tracing
//! enabled serializes to the byte-identical `EvalLog` as one without, at
//! any worker count — spans and counters observe the run, they never
//! steer it. Lives in its own test binary because the obs recorder is
//! process-global.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::method_by_name;
use nl2sql360::{EvalContext, EvalOptions};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

#[test]
fn tracing_on_or_off_yields_byte_identical_eval_logs() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(17));
    let ctx = EvalContext::new(&corpus);
    let model = modelzoo::SimulatedModel::new(method_by_name("DAILSQL").unwrap());

    let mut logs = Vec::new();
    for workers in [1usize, 4] {
        for trace in [false, true] {
            obs::reset();
            let guard = trace.then(obs::enable);
            let opts = EvalOptions::new().subset(24).workers(workers);
            let log = ctx.evaluate_with(&model, &opts).expect("model runs on Spider");
            drop(guard);
            let recorded = !obs::snapshot().events.is_empty();
            assert_eq!(recorded, trace, "recorder active iff trace requested");
            logs.push(serde_json::to_string(&log).expect("log serializes"));
        }
    }
    obs::reset();

    let baseline = &logs[0];
    for (i, other) in logs.iter().enumerate().skip(1) {
        assert_eq!(baseline, other, "log {i} diverged from the untraced 1-worker run");
    }
}

/// The `evaluate --emit-metrics` path: run with the recorder on, bridge
/// the snapshot into a registry, and render the exposition — the EvalLog
/// must stay byte-identical to an untelemetered run at any worker count,
/// and the exposition must carry the recorder's families.
#[test]
fn emit_metrics_path_is_outcome_neutral() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(31));
    let ctx = EvalContext::new(&corpus);
    let model = modelzoo::SimulatedModel::new(method_by_name("C3SQL").unwrap());

    obs::reset();
    let baseline = serde_json::to_string(
        &ctx.evaluate_with(&model, &EvalOptions::new().subset(16)).expect("runs"),
    )
    .unwrap();

    for workers in [1usize, 4] {
        obs::reset();
        let guard = obs::enable();
        let log = ctx
            .evaluate_with(&model, &EvalOptions::new().subset(16).workers(workers))
            .expect("runs");
        let exposition = obs::registry::bridge_recorder(&obs::snapshot()).render_prometheus();
        drop(guard);
        obs::reset();
        assert_eq!(
            baseline,
            serde_json::to_string(&log).unwrap(),
            "emit-metrics run diverged at {workers} workers"
        );
        assert!(
            exposition.contains("obs_spans_total{"),
            "bridged exposition must carry recorder span families:\n{exposition}"
        );
    }
}

/// `evaluate_with` is the single entry point (the pre-`EvalOptions` shims
/// are gone): every option combination a shim used to spell must stay
/// byte-equivalent to the canonical builder chain, so callers migrated off
/// the shims keep identical logs.
#[test]
fn option_combinations_are_byte_equivalent_to_the_canonical_chain() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(23));
    let ctx = EvalContext::new(&corpus);
    let model = modelzoo::SimulatedModel::new(method_by_name("C3SQL").unwrap());

    let canonical = serde_json::to_string(
        &ctx.evaluate_with(&model, &EvalOptions::new().subset(12)).expect("runs"),
    )
    .unwrap();
    // the spellings the removed evaluate/evaluate_subset[_parallel] shims
    // forwarded to, plus setter-order permutations
    let equivalents = [
        EvalOptions::new().subset(12).workers(1),
        EvalOptions::new().subset(12).workers(3),
        EvalOptions::new().workers(3).subset(12),
        EvalOptions::default().subset(12),
    ];
    for (i, opts) in equivalents.iter().enumerate() {
        let log = serde_json::to_string(&ctx.evaluate_with(&model, opts).expect("runs")).unwrap();
        assert_eq!(canonical, log, "option spelling {i} diverged from the canonical chain");
    }
    // a subset larger than the split clamps instead of erroring, like the
    // old subset shim did
    let clamped = ctx
        .evaluate_with(&model, &EvalOptions::new().subset(corpus.dev.len() + 100))
        .expect("runs");
    assert_eq!(clamped.records.len(), corpus.dev.len());
}
