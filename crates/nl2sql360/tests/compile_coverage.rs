//! What reaches minidb's interpreter in production, pinned on small
//! corpora. `minidb::compile` accepts a statement or declines it to the
//! interpreter; measured over the full Spider and BIRD dev sets at corpus
//! seed 7 (2 568 gold queries, 52 686 predictions of every registry
//! method) it declines no gold query and only predictions that name a
//! column that does not exist — which `sqlcheck` reports statically. The
//! method here is the PLM with the widest mutation palette on join
//! queries (`DropJoin` leaves dangling qualifiers, `SwapComparison` mints
//! the `ON a.fk != b.id` joins), so join chains, non-equi joins and every
//! other shape its corruptions produce must compile.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, SimulatedModel, TranslationTask};
use nl2sql360::EvalContext;
use sqlcheck::{Catalog, Rule, Severity};

#[test]
fn only_unresolvable_names_reach_the_interpreter() {
    let model = SimulatedModel::new(method_by_name("RESDSQL-3B").expect("registry method"));
    for kind in [CorpusKind::Spider, CorpusKind::Bird] {
        let corpus = generate_corpus(kind, &CorpusConfig::tiny(7));
        let ctx = EvalContext::new(&corpus);
        let (mut predictions, mut declined) = (0, 0);
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
                if minidb::compile(db, &pred.query).is_some() {
                    continue;
                }
                declined += 1;
                let unknown_column = sqlcheck::analyze(&catalog, &pred.query)
                    .iter()
                    .any(|d| d.rule == Rule::UnknownColumn && d.severity == Severity::Error);
                assert!(
                    unknown_column,
                    "{kind:?} prediction declined for something other than an unknown column: `{}`",
                    pred.sql
                );
            }
        }
        assert!(predictions >= 60 && declined >= 1, "{kind:?}: {declined} of {predictions} declined");
    }
}
