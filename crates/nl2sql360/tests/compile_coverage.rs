//! What reaches minidb's interpreter in production — nothing — pinned on
//! small corpora. `minidb::compile` lowers a statement, or compiles a
//! wrong table / column name to the plan that raises it, or declines the
//! shape to the interpreter; measured over the full Spider and BIRD dev
//! sets at corpus seed 7 (2 568 gold queries, 52 686 predictions of every
//! registry method) it declines nothing. The method here is the PLM with
//! the widest mutation palette on join queries (`DropJoin` leaves dangling
//! qualifiers, `SwapComparison` mints the `ON a.fk != b.id` joins), so join
//! chains, non-equi joins and every other shape its corruptions produce
//! must compile. Names bind before rows move, so a prediction fails exactly
//! when `sqlcheck` reports a name Error — on the compiled plan and on the
//! interpreter alike, which also pins "lowering succeeded ⇒ bind passes".

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, SimulatedModel, TranslationTask};
use nl2sql360::EvalContext;
use sqlcheck::{Catalog, Rule, Severity};

#[test]
fn nothing_declines_and_failures_are_sqlcheck_name_errors() {
    let model = SimulatedModel::new(method_by_name("RESDSQL-3B").expect("registry method"));
    for kind in [CorpusKind::Spider, CorpusKind::Bird] {
        let corpus = generate_corpus(kind, &CorpusConfig::tiny(7));
        let ctx = EvalContext::new(&corpus);
        let (mut predictions, mut name_errors) = (0, 0);
        for (i, sample) in corpus.dev.iter().enumerate() {
            let db = &corpus.db(sample).database;
            assert!(
                minidb::compile(db, &sample.query).is_some(),
                "{kind:?} gold query declined: `{}`",
                sample.sql
            );
            let catalog = Catalog::from_database(db);
            for variant in 0..sample.variants.len() {
                let task = TranslationTask {
                    gold_result: Some(ctx.gold_result(i)),
                    ..ctx.task(sample, variant)
                };
                let Some(pred) = model.translate(&task) else { continue };
                predictions += 1;
                let plan = minidb::compile(db, &pred.query)
                    .unwrap_or_else(|| panic!("{kind:?} prediction declined: `{}`", pred.sql));
                let failure = plan.execute(db).err();
                assert_eq!(
                    failure,
                    minidb::exec::execute(db, &pred.query).err(),
                    "{kind:?} compiled and interpreted `{}` fail differently",
                    pred.sql
                );
                let flagged: Vec<String> = sqlcheck::analyze(&catalog, &pred.query)
                    .into_iter()
                    .filter(|d| {
                        matches!(d.rule, Rule::UnknownColumn | Rule::UnknownTable)
                            && d.severity == Severity::Error
                    })
                    .filter_map(|d| d.ident)
                    .collect();
                match &failure {
                    None => assert!(flagged.is_empty(), "{kind:?} `{}` ran, sqlcheck: {flagged:?}", pred.sql),
                    Some(e) => {
                        name_errors += 1;
                        let name = e.offending_name().unwrap_or_default().to_string();
                        assert!(
                            flagged.contains(&name),
                            "{kind:?} `{}` failed with `{e}`, sqlcheck: {flagged:?}",
                            pred.sql
                        );
                    }
                }
            }
        }
        assert!(
            predictions >= 60 && name_errors >= 1,
            "{kind:?}: {name_errors} name errors in {predictions} predictions"
        );
    }
}
