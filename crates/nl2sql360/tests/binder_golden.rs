//! Golden digest of every decision that resolves a name against a
//! database's catalog: for each dev gold query and each prediction of every
//! zoo method, plain and with StaticRepair post-processing, on Spider and
//! BIRD — the static check's diagnostics, the canonical form with and
//! without the catalog (query text and fired rules), serve's canonical
//! cache key and what StaticRepair makes of the query. A change to how the
//! static check, the canonicalizer or StaticRepair binds a name that moves
//! one of these fails here.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::profiles::fnv1a;
use modelzoo::{all_methods, static_repair, PostProcessing, SimulatedModel};
use nl2sql360::EvalContext;
use sqlcheck::equiv::{cache_key_canonical_sql, canonicalize, RuleSet};
use sqlkit::Query;

/// `(queries, FNV-1a chained over each query's decisions)`.
fn digest(kind: CorpusKind, config: &CorpusConfig) -> (usize, u64) {
    let corpus = generate_corpus(kind, config);
    let ctx = EvalContext::new(&corpus);
    let models: Vec<SimulatedModel> = all_methods()
        .into_iter()
        .flat_map(|spec| {
            let mut repairing = spec.clone();
            repairing.modules.post = PostProcessing::StaticRepair;
            [SimulatedModel::new(spec), SimulatedModel::new(repairing)]
        })
        .collect();
    let (mut n, mut h) = (0usize, 0u64);
    for sample in &corpus.dev {
        let catalog = ctx.catalog(&sample.db_id).expect("a sample's database has a catalog");
        let mut queries: Vec<Query> = vec![sample.query.clone()];
        for model in &models {
            for v in 0..sample.variants.len() {
                if let Some((query, _)) = model.predict_query_only(&ctx.task(sample, v)) {
                    queries.push(query);
                }
            }
        }
        for query in queries {
            let with = canonicalize(&query, RuleSet::full(), Some(catalog));
            let without = canonicalize(&query, RuleSet::full(), None);
            let mut repaired = query.clone();
            let changed = static_repair(&mut repaired, catalog);
            let record = format!(
                "{}\n{:?}\n{}\n{:?}\n{}\n{:?}\n{}\n{changed} {}",
                sqlkit::to_sql(&query),
                sqlcheck::analyze(catalog, &query),
                sqlkit::to_sql(&with.query),
                with.fired,
                sqlkit::to_sql(&without.query),
                without.fired,
                cache_key_canonical_sql(&query, Some(catalog)),
                sqlkit::to_sql(&repaired),
            );
            h = fnv1a(&[&h.to_le_bytes(), record.as_bytes()]);
            n += 1;
        }
    }
    (n, h)
}

/// `tiny`'s training split (translation reads it only for few-shot
/// retrieval) beside ten times its dev split, over eight databases, with
/// each corpus's paper-sized share of multi-variant questions.
fn config(variant_prob: f64) -> CorpusConfig {
    CorpusConfig { dev_dbs: 8, dev_samples: 600, variant_prob, ..CorpusConfig::tiny(21) }
}

#[test]
fn spider_binder_decisions_are_stable() {
    assert_eq!(digest(CorpusKind::Spider, &config(0.5)), (38_712, 0x7c5e_405c_c1be_d460));
}

#[test]
fn bird_binder_decisions_are_stable() {
    assert_eq!(digest(CorpusKind::Bird, &config(0.08)), (17_232, 0x9ce6_b615_e712_20b7));
}

/// The paper-sized corpora (seed 42), about 6 s in a release build: run on
/// demand with `cargo test --release -p nl2sql360 --test binder_golden --
/// --ignored`.
#[test]
#[ignore = "paper-sized corpora; run with --release -- --ignored"]
fn full_scale_binder_decisions_are_stable() {
    let digests = [
        digest(CorpusKind::Spider, &CorpusConfig::spider(42)),
        digest(CorpusKind::Bird, &CorpusConfig::bird(42)),
    ];
    assert_eq!(digests, [(67_306, 0x8307_632b_8a16_9b58), (40_188, 0x529b_0934_46f8_9f36)]);
}
