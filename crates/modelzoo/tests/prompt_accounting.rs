//! Prompt accounting ≡ the rendered prompt: a plan's length, added up from
//! its database's profile, is the length of the text it renders, so the
//! tokens `translate` bills are the tokens of the prompt it would send.
//! Checked for every API method on every dev question of small Spider and
//! BIRD corpora, and for arbitrary module configurations (the AAS search
//! space) under each instruction family.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use modelzoo::modules::FewShotIndex;
use modelzoo::prompt::{DbPrompt, PromptPlan};
use modelzoo::{
    all_methods, count_tokens, Decoding, FewShot, Intermediate, ModuleSet, MultiStep,
    PostProcessing, Serving,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Profiles of every database of a corpus, by id.
fn profiles(c: &Corpus) -> HashMap<&str, DbPrompt> {
    c.databases.iter().map(|(id, db)| (id.as_str(), DbPrompt::new(db))).collect()
}

/// The plan's text, after checking its length and tokens against the
/// plan's own sum.
fn pinned_render(plan: &PromptPlan<'_>) -> String {
    let text = plan.render();
    assert_eq!(text.chars().count(), plan.chars(), "{text}");
    assert_eq!(count_tokens(&text), (plan.chars() as u64).div_ceil(4), "{text}");
    text
}

#[test]
fn every_api_method_on_every_dev_question() {
    let api: Vec<_> =
        all_methods().into_iter().filter(|m| matches!(m.serving, Serving::Api(_))).collect();
    assert_eq!(api.len(), 5, "the zoo's prompt-based methods");
    let (mut annotated, mut pruned) = (0, 0);
    for kind in [CorpusKind::Spider, CorpusKind::Bird] {
        let c = generate_corpus(kind, &CorpusConfig::tiny(5));
        let index = FewShotIndex::new(&c.train);
        let profiles = profiles(&c);
        for spec in &api {
            for s in &c.dev {
                let prompt = &profiles[s.db_id.as_str()];
                for q in &s.variants {
                    let plan = PromptPlan::new(spec.name, &spec.modules, prompt, q, Some(&index));
                    let text = pinned_render(&plan);
                    annotated += usize::from(text.contains("-- value examples: '"));
                    let tables = c.db(s).database.table_count();
                    pruned += usize::from(text.matches("CREATE TABLE ").count() < tables);
                }
            }
        }
    }
    assert!(annotated > 0 && pruned > 0, "{annotated} annotated, {pruned} pruned");
}

fn corpus() -> &'static (Corpus, HashMap<String, DbPrompt>) {
    static C: OnceLock<(Corpus, HashMap<String, DbPrompt>)> = OnceLock::new();
    C.get_or_init(|| {
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(9));
        let profiles = c.databases.iter().map(|(id, db)| (id.clone(), DbPrompt::new(db))).collect();
        (c, profiles)
    })
}

fn index() -> &'static FewShotIndex<'static> {
    static I: OnceLock<FewShotIndex<'static>> = OnceLock::new();
    I.get_or_init(|| FewShotIndex::new(&corpus().0.train))
}

fn module_sets() -> impl Strategy<Value = ModuleSet> {
    use FewShot as F;
    use PostProcessing as P;
    (any::<bool>(), any::<bool>(), 0..3usize, 0..3usize, 0..2usize, 0..3usize, 0..6usize).prop_map(
        |(schema_linking, db_content, few_shot, multi_step, intermediate, decoding, post)| {
            ModuleSet {
                schema_linking,
                db_content,
                few_shot: [F::ZeroShot, F::Manual, F::SimilarityBased][few_shot],
                multi_step: [MultiStep::None, MultiStep::SkeletonParsing, MultiStep::Decomposition]
                    [multi_step],
                intermediate: [Intermediate::None, Intermediate::NatSql][intermediate],
                decoding: [Decoding::Greedy, Decoding::Beam, Decoding::Picard][decoding],
                post: [
                    P::None,
                    P::SelfCorrection,
                    P::SelfConsistency,
                    P::ExecutionGuided,
                    P::Reranker,
                    P::StaticRepair,
                ][post],
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any module configuration, under each instruction family (`C3*`,
    /// `DIN*`, the rest), with and without a few-shot index.
    #[test]
    fn any_module_set_under_any_instructions(
        modules in module_sets(),
        family in 0usize..3,
        sample in 0usize..60,
        variant in 0usize..4,
        with_index in any::<bool>(),
    ) {
        let (c, profiles) = corpus();
        let s = &c.dev[sample % c.dev.len()];
        let q = &s.variants[variant % s.variants.len()];
        let plan = PromptPlan::new(
            ["C3SQL", "DINSQL", "DAILSQL"][family],
            &modules,
            &profiles[&s.db_id],
            q,
            with_index.then(index),
        );
        pinned_render(&plan);
    }
}
