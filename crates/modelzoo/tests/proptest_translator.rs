//! Property-based tests of the simulated translators: for arbitrary seeds
//! and zoo members, predictions must parse, be deterministic, and respect
//! the simulation contract (restyled-correct predictions execute to the
//! gold result; corrupted predictions differ from it).

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::{zoo, DatasetKind, DbProfile, Nl2SqlModel, TranslationTask};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

fn corpus() -> &'static datagen::Corpus {
    static C: OnceLock<datagen::Corpus> = OnceLock::new();
    C.get_or_init(|| generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(2718)))
}

/// Profiles of every database of [`corpus`], by id.
fn profiles() -> &'static HashMap<&'static str, DbProfile> {
    static P: OnceLock<HashMap<&str, DbProfile>> = OnceLock::new();
    P.get_or_init(|| {
        corpus().databases.iter().map(|(id, db)| (id.as_str(), DbProfile::new(db))).collect()
    })
}

fn task(sample_idx: usize, variant: usize) -> TranslationTask<'static> {
    let c = corpus();
    let sample = &c.dev[sample_idx % c.dev.len()];
    TranslationTask {
        sample,
        variant: variant % sample.variants.len(),
        db: c.db(sample),
        profile: &profiles()[sample.db_id.as_str()],
        dataset: DatasetKind::Spider,
        domain_train_dbs: 3,
        avg_domain_train_dbs: 3.6,
        few_shot: None,
        gold_result: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every zoo member's prediction parses and is stable across calls.
    #[test]
    fn predictions_parse_and_are_deterministic(
        sample_idx in 0usize..60,
        variant in 0usize..4,
        method_idx in 0usize..16,
    ) {
        let models = zoo();
        let m = &models[method_idx % models.len()];
        let t = task(sample_idx, variant);
        let a = m.translate(&t).expect("spider always supported");
        let b = m.translate(&t).expect("spider always supported");
        prop_assert_eq!(&a.sql, &b.sql);
        prop_assert_eq!(a.prompt_tokens, b.prompt_tokens);
        prop_assert_eq!(a.cost_usd, b.cost_usd);
        let parsed = sqlkit::parse_query(&a.sql)
            .unwrap_or_else(|e| panic!("{}: `{}`: {e}", m.name(), a.sql));
        prop_assert_eq!(parsed, a.query);
    }

    /// The prediction either executes to the gold result (a correct /
    /// restyled output) or it does not — and in the incorrect case the
    /// query text must differ from gold (the corruption contract).
    #[test]
    fn simulation_contract(sample_idx in 0usize..60, method_idx in 0usize..16) {
        let c = corpus();
        let models = zoo();
        let m = &models[method_idx % models.len()];
        let t = task(sample_idx, 0);
        let pred = m.translate(&t).expect("supported");
        let gold_rs = c.db(t.sample).database.run_query(&t.sample.query).expect("gold runs");
        let ex = match c.db(t.sample).database.run_query(&pred.query) {
            Ok(rs) => minidb::results_equivalent(&gold_rs, &rs),
            Err(_) => false,
        };
        if !ex {
            prop_assert_ne!(&pred.query, &t.sample.query, "wrong predictions must differ");
        }
    }

    /// The fast fitness path produces the same query and outcome as the
    /// full translate.
    #[test]
    fn fast_path_matches_translate(sample_idx in 0usize..60, method_idx in 0usize..16) {
        let models = zoo();
        let m = &models[method_idx % models.len()];
        let t = task(sample_idx, 0);
        let full = m.translate(&t).expect("supported");
        let (fast, executed) = m.predict_query_only(&t).expect("supported");
        prop_assert_eq!(full.query, fast);
        prop_assert_eq!(full.executed, executed);
    }

    /// Economy accounting is internally consistent: cost follows tokens for
    /// API methods; local methods bill zero dollars and positive latency.
    #[test]
    fn economy_consistency(sample_idx in 0usize..60, method_idx in 0usize..16) {
        let models = zoo();
        let m = &models[method_idx % models.len()];
        let t = task(sample_idx, 0);
        let p = m.translate(&t).expect("supported");
        match m.spec().serving {
            modelzoo::Serving::Api(pricing) => {
                let expected = pricing.cost(p.prompt_tokens, p.completion_tokens);
                prop_assert!((p.cost_usd - expected).abs() < 1e-12);
                prop_assert!(p.prompt_tokens > 0);
            }
            modelzoo::Serving::Local(_) => {
                prop_assert_eq!(p.cost_usd, 0.0);
                prop_assert_eq!(p.prompt_tokens, 0);
                prop_assert!(p.latency_s > 0.0);
            }
        }
        prop_assert!(p.latency_s.is_finite());
    }
}
