//! Method-specific corruption: how each method family gets things wrong.
//!
//! When the calibrated profile decides a prediction is incorrect, the
//! corruption engine applies AST mutations to the gold query using a
//! *method-class-specific palette* reflecting published NL2SQL error
//! analyses: PLMs mis-link schema elements and fumble nesting; prompt-based
//! LLMs perturb values and conditions; fine-tuned LLMs sit in between.

use crate::taxonomy::MethodClass;
use datagen::GeneratedDb;
use minidb::ResultSet;
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

/// Column-name vocabulary of a database, for schema-linking mutations.
pub fn db_vocab(db: &GeneratedDb) -> Vocab {
    let mut columns = Vec::new();
    for t in db.database.tables() {
        for c in &t.schema.columns {
            if !columns.contains(&c.name) {
                columns.push(c.name.clone());
            }
        }
    }
    Vocab::new(columns)
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
/// `gold_result` is the result of `gold` on `db` when the caller already
/// holds it; with `None` the gold query is executed here.
pub fn corrupt_prediction(
    gold: &Query,
    class: MethodClass,
    db: &GeneratedDb,
    gold_result: Option<&ResultSet>,
    rng: &mut StdRng,
) -> Query {
    let vocab = db_vocab(db);
    let pal = palette(class);
    let executed =
        if gold_result.is_none() { db.database.run_query(gold).ok() } else { None };
    let gold_rs = gold_result.or(executed.as_ref());

    let mut pred = gold.clone();
    let n = 1 + usize::from(rng.gen_bool(0.35)) + usize::from(rng.gen_bool(0.15));
    for _ in 0..n {
        corrupt(&mut pred, &pal, &vocab, rng);
    }
    for _ in 0..6 {
        if pred != *gold && !executes_like_gold(db, &pred, gold_rs) {
            return pred;
        }
        corrupt(&mut pred, &pal, &vocab, rng);
    }
    if pred != *gold && !executes_like_gold(db, &pred, gold_rs) {
        return pred;
    }
    // guaranteed-wrong fallback: a scalar that cannot equal any gold result
    // produced by the corpus generators (all gold queries read a table)
    sqlkit::parse_query("SELECT 'prediction_error'").expect("static SQL parses")
}

/// Does `pred` execute successfully to the same result as the gold query?
fn executes_like_gold(db: &GeneratedDb, pred: &Query, gold_rs: Option<&ResultSet>) -> bool {
    let Some(gold_rs) = gold_rs else {
        return false;
    };
    match db.database.run_query(pred) {
        Ok(rs) => minidb::results_equivalent(gold_rs, &rs),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use rand::SeedableRng;

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
            let pred =
                corrupt_prediction(&s.query, MethodClass::FinetunedPlm, c.db(s), None, &mut rng);
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
            let pred =
                corrupt_prediction(&s.query, MethodClass::PromptLlm, c.db(s), None, &mut rng);
            let gold_rs = c.db(s).database.run_query(&s.query).unwrap();
            total += 1;
            match c.db(s).database.run_query(&pred) {
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
                for class in [MethodClass::PromptLlm, MethodClass::FinetunedPlm] {
                    let mut executing = StdRng::seed_from_u64(i as u64);
                    let mut supplied = executing.clone();
                    let a = corrupt_prediction(&s.query, class, db, None, &mut executing);
                    let b = corrupt_prediction(&s.query, class, db, Some(&gold_rs), &mut supplied);
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
        let v = db_vocab(db);
        assert!(v.columns.len() >= 4);
        assert!(v.columns.iter().any(|c| c == "id"));
    }
}
