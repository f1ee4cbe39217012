//! What translation hands the scorer: `Prediction::executed` carries the
//! outcome of the execution that accepted a corrupted candidate, so the
//! evaluator does not run that query again. For every zoo method, and for
//! each method with StaticRepair post-processing, on tiny Spider and BIRD:
//! the outcome is present exactly when a corruption other than the
//! fallback literal survived repair unchanged, and it is then exactly what
//! executing the predicted query gives — rows, columns, order flag, work
//! units, or the same error.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use minidb::results_equivalent;
use modelzoo::{all_methods, Nl2SqlModel, PostProcessing, SimulatedModel};
use nl2sql360::EvalContext;

/// The corruption engine's last resort, never executed by it.
const FALLBACK: &str = "SELECT 'prediction_error'";

fn check(kind: CorpusKind) {
    let corpus = generate_corpus(kind, &CorpusConfig::tiny(21));
    let ctx = EvalContext::new(&corpus);
    let (mut handed, mut repaired_away) = (0usize, 0usize);
    for spec in all_methods() {
        let plain = SimulatedModel::new(spec.clone());
        let mut repairing = spec;
        repairing.modules.post = PostProcessing::StaticRepair;
        let repairing = SimulatedModel::new(repairing);
        for (i, sample) in corpus.dev.iter().enumerate() {
            let db = &corpus.db(sample).database;
            for v in 0..sample.variants.len() {
                let task = ctx.task(sample, v);
                let Some(base) = plain.translate(&task) else { continue };
                let repaired = repairing.translate(&task).expect("the same method, repaired");
                // a correct or restyled prediction executes like gold, a
                // corruption other than the fallback does not
                let wrong = db
                    .run_query(&base.query)
                    .map_or(true, |rs| !results_equivalent(ctx.gold_result(i), &rs));
                let corrupted = wrong && base.sql != FALLBACK;
                let survived = corrupted && repaired.query == base.query;
                repaired_away += usize::from(corrupted && !survived);
                let at = format!("{kind:?} dev[{i}] v{v} {}", plain.name());
                assert_eq!(base.executed.is_some(), corrupted, "{at}: `{}`", base.sql);
                assert_eq!(
                    repaired.executed.is_some(),
                    survived,
                    "{at} repaired: `{}`",
                    repaired.sql
                );
                for pred in [&base, &repaired] {
                    if let Some(executed) = &pred.executed {
                        handed += 1;
                        let fresh = db.run_query(&pred.query);
                        assert_eq!(
                            format!("{executed:?}"),
                            format!("{fresh:?}"),
                            "{at}: `{}`",
                            pred.sql
                        );
                    }
                }
            }
        }
    }
    // not vacuous: outcomes were handed over, and StaticRepair withdrew some
    assert!(handed > 500, "{kind:?}: only {handed} outcomes handed over");
    assert!(repaired_away > 0, "{kind:?}: StaticRepair never changed a corruption");
}

#[test]
fn spider_outcomes_travel_with_their_queries() {
    check(CorpusKind::Spider);
}

#[test]
fn bird_outcomes_travel_with_their_queries() {
    check(CorpusKind::Bird);
}
