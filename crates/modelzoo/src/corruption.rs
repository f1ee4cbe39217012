//! Method-specific corruption: how each method family gets things wrong.
//!
//! When the calibrated profile decides a prediction is incorrect, the
//! corruption engine applies AST mutations to the gold query using a
//! *method-class-specific palette* reflecting published NL2SQL error
//! analyses: PLMs mis-link schema elements and fumble nesting; prompt-based
//! LLMs perturb values and conditions; fine-tuned LLMs sit in between.

use crate::taxonomy::MethodClass;
use datagen::GeneratedDb;
use minidb::{ExecResult, ResultSet};
use rand::rngs::StdRng;
use rand::Rng;
use sqlkit::mutate::{corrupt, MutationKind, Vocab};
use sqlkit::Query;

/// Mutation palette for a method class.
pub fn palette(class: MethodClass) -> Vec<MutationKind> {
    use MutationKind::*;
    match class {
        // prompt LLMs: value/condition slips, occasional structure loss
        MethodClass::PromptLlm | MethodClass::Hybrid => vec![
            PerturbValue,
            PerturbValue,
            SwapColumn,
            SwapComparison,
            DropCondition,
            BreakOrderBy,
            ToggleDistinct,
            SwapConnector,
            PerturbLimit,
        ],
        // fine-tuned LLMs: mostly linking and condition errors
        MethodClass::FinetunedLlm => vec![
            SwapColumn,
            SwapColumn,
            PerturbValue,
            SwapComparison,
            DropCondition,
            SwapAggregate,
            BreakOrderBy,
            PerturbLimit,
        ],
        // PLMs: schema-linking errors, dropped JOINs, flattened subqueries
        MethodClass::FinetunedPlm => vec![
            SwapColumn,
            SwapColumn,
            DropJoin,
            FlattenSubquery,
            FlattenSubquery,
            SwapAggregate,
            DropCondition,
            SwapComparison,
            BreakOrderBy,
        ],
    }
}

/// Produce an incorrect prediction by mutating the gold query.
///
/// A mutation can be semantically inert (dropping a predicate every row
/// satisfies, perturbing a value no row is near), which would silently turn
/// an intended-wrong prediction into a correct one and inflate EX above the
/// calibration targets. The engine therefore *verifies* each candidate by
/// executing it: candidates whose results still match the gold results are
/// re-mutated, and a guaranteed-wrong scalar answer is the last resort.
///
/// Returns the accepted candidate with the outcome of the execution that
/// accepted it, so a scorer need not run it again; the outcome is `None`
/// only for the fallback literal, which is never executed here.
///
/// `vocab` is `db`'s column vocabulary, a [`DbProfile`](crate::DbProfile)'s.
/// `gold_result` is the result of `gold` on `db` when the caller already
/// holds it; with `None` the gold query is executed here.
pub fn corrupt_prediction(
    gold: &Query,
    class: MethodClass,
    db: &GeneratedDb,
    vocab: &Vocab,
    gold_result: Option<&ResultSet>,
    rng: &mut StdRng,
) -> (Query, Option<ExecResult<ResultSet>>) {
    let pal = palette(class);
    let executed =
        if gold_result.is_none() { db.database.run_query(gold).ok() } else { None };
    let gold_rs = gold_result.or(executed.as_ref());

    let mut pred = gold.clone();
    let n = 1 + usize::from(rng.gen_bool(0.35)) + usize::from(rng.gen_bool(0.15));
    for _ in 0..n {
        corrupt(&mut pred, &pal, vocab, rng);
    }
    for _ in 0..6 {
        if let Some(outcome) = unlike_gold(db, gold, &pred, gold_rs) {
            return (pred, Some(outcome));
        }
        corrupt(&mut pred, &pal, vocab, rng);
    }
    if let Some(outcome) = unlike_gold(db, gold, &pred, gold_rs) {
        return (pred, Some(outcome));
    }
    // guaranteed-wrong fallback: a scalar that cannot equal any gold result
    // produced by the corpus generators (all gold queries read a table)
    (sqlkit::parse_query("SELECT 'prediction_error'").expect("static SQL parses"), None)
}

/// `pred`'s outcome on `db` when `pred` is not `gold` and does not execute
/// to the gold result: an error, or a result unlike gold's (any result,
/// when gold's is unknown). `None` when the candidate must be re-mutated.
fn unlike_gold(
    db: &GeneratedDb,
    gold: &Query,
    pred: &Query,
    gold_rs: Option<&ResultSet>,
) -> Option<ExecResult<ResultSet>> {
    if pred == gold {
        return None;
    }
    let outcome = db.database.run_query(pred);
    let like_gold = match (&outcome, gold_rs) {
        (Ok(rs), Some(gold_rs)) => minidb::results_equivalent(gold_rs, rs),
        _ => false,
    };
    (!like_gold).then_some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbProfile;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use rand::SeedableRng;

    fn vocab(db: &GeneratedDb) -> Vocab {
        DbProfile::new(db).vocab
    }

    #[test]
    fn palettes_reflect_class_error_styles() {
        let plm = palette(MethodClass::FinetunedPlm);
        assert!(plm.contains(&MutationKind::DropJoin));
        assert!(plm.contains(&MutationKind::FlattenSubquery));
        let prompt = palette(MethodClass::PromptLlm);
        assert!(!prompt.contains(&MutationKind::DropJoin));
        assert!(prompt.contains(&MutationKind::PerturbValue));
    }

    #[test]
    fn corruption_changes_the_query() {
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(3));
        let mut changed = 0;
        let mut total = 0;
        for (i, s) in c.dev.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let (db, class) = (c.db(s), MethodClass::FinetunedPlm);
            let (pred, _) = corrupt_prediction(&s.query, class, db, &vocab(db), None, &mut rng);
            total += 1;
            if pred != s.query {
                changed += 1;
            }
        }
        assert_eq!(changed, total, "every corruption should alter the AST");
    }

    #[test]
    fn corrupted_queries_mostly_score_wrong_on_ex() {
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(4));
        let mut wrong = 0;
        let mut total = 0;
        for (i, s) in c.dev.iter().enumerate().take(40) {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let (db, class) = (c.db(s), MethodClass::PromptLlm);
            let (pred, executed) =
                corrupt_prediction(&s.query, class, db, &vocab(db), None, &mut rng);
            let gold_rs = c.db(s).database.run_query(&s.query).unwrap();
            total += 1;
            let outcome = c.db(s).database.run_query(&pred);
            // the accepted candidate's outcome is the one its check ran
            if let Some(executed) = executed {
                assert_eq!(executed, outcome, "dev[{i}]");
            }
            match outcome {
                Ok(pred_rs) => {
                    if !minidb::results_equivalent(&gold_rs, &pred_rs) {
                        wrong += 1;
                    }
                }
                Err(_) => wrong += 1,
            }
        }
        // a few corruptions may be semantically inert by chance; most must
        // actually change the result
        assert!(wrong * 10 >= total * 6, "only {wrong}/{total} corruptions were wrong");
    }

    #[test]
    fn supplied_gold_result_changes_nothing() {
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let c = generate_corpus(kind, &CorpusConfig::tiny(6));
            for (i, s) in c.dev.iter().enumerate() {
                let db = c.db(s);
                let gold_rs = db.database.run_query(&s.query).unwrap();
                let vocab = vocab(db);
                for class in [MethodClass::PromptLlm, MethodClass::FinetunedPlm] {
                    let mut executing = StdRng::seed_from_u64(i as u64);
                    let mut supplied = executing.clone();
                    let a = corrupt_prediction(&s.query, class, db, &vocab, None, &mut executing);
                    let b = corrupt_prediction(
                        &s.query,
                        class,
                        db,
                        &vocab,
                        Some(&gold_rs),
                        &mut supplied,
                    );
                    assert_eq!(a, b, "{kind:?} dev[{i}] {class:?}");
                    // and both consumed the same random stream
                    assert_eq!(executing.gen::<u64>(), supplied.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn vocab_collects_all_columns() {
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
        let db = c.databases.values().next().unwrap();
        let v = vocab(db);
        assert!(v.columns.len() >= 4);
        assert!(v.columns.iter().any(|c| c == "id"));
    }
}
