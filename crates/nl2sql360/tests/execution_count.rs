//! How many queries an evaluation executes, counted by minidb's dispatch
//! counters the way `serve/tests/obs_trace.rs` counts them. Each
//! prediction runs at most once: a corrupted one not at all after the
//! corruption check that accepted it, a gold-identical one not at all (gold
//! ran when the context was built). And nothing is remembered between
//! evaluations, so a repeated evaluation executes exactly as often as the
//! first. Runs in its own test binary because the obs recorder is global.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, SimulatedModel};
use nl2sql360::{EvalContext, EvalOptions};

fn dispatched() -> u64 {
    let snap = obs::snapshot();
    snap.counter("minidb.dispatch.compiled") + snap.counter("minidb.dispatch.interpreter")
}

/// Executions of two evaluations of `method` in a row.
fn executions(ctx: &EvalContext<'_>, method: &str) -> (u64, u64) {
    let model = SimulatedModel::new(method_by_name(method).expect("registered"));
    let opts = EvalOptions::new().workers(2);
    obs::reset();
    let _recording = obs::enable();
    ctx.evaluate_with(&model, &opts).expect("runs on BIRD");
    let first = dispatched();
    ctx.evaluate_with(&model, &opts).expect("runs on BIRD");
    (first, dispatched() - first)
}

#[test]
fn each_prediction_executes_at_most_once_in_every_evaluation() {
    let corpus = generate_corpus(CorpusKind::Bird, &CorpusConfig::tiny(21));
    // gold executes here, before the recorder is on
    let ctx = EvalContext::new(&corpus);
    // Before predictions carried their outcome, the same evaluations
    // executed 245 (C3SQL) and 208 (RESDSQL-3B) queries each.
    assert_eq!(executions(&ctx, "C3SQL"), (136, 136), "API method");
    assert_eq!(executions(&ctx, "RESDSQL-3B"), (79, 79), "local method");
    obs::reset();
}
