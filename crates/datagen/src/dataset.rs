//! Corpus assembly: Spider-like and BIRD-like benchmarks.
//!
//! A [`Corpus`] bundles generated databases with train/dev (NL, SQL) samples.
//! Every gold query is validated by actually executing it on its database;
//! samples whose gold SQL fails to execute are regenerated. Dev samples may
//! carry multiple NL variants (for QVT); recipes are mixed per corpus so the
//! hardness distribution approximates the original benchmarks.

use crate::dbgen::{generate_db, GeneratedDb, SchemaProfile};
use crate::domains::{DomainId, DOMAINS};
use crate::nl::render_variants;
use crate::query_gen::{QueryGenerator, Recipe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqlkit::hardness::BirdDifficulty;
use sqlkit::{Hardness, Query, SqlFeatures};
use std::collections::BTreeMap;

/// Which benchmark family a corpus imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorpusKind {
    /// Spider-like: moderate schemas, the classic hardness mix.
    Spider,
    /// BIRD-like: bigger schemas and content, harder queries, CASE/IIF.
    Bird,
}

impl CorpusKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CorpusKind::Spider => "Spider",
            CorpusKind::Bird => "BIRD",
        }
    }

    /// The schema profile this kind's databases are generated from.
    pub fn schema_profile(&self) -> SchemaProfile {
        match self {
            CorpusKind::Spider => SchemaProfile::spider(),
            CorpusKind::Bird => SchemaProfile::bird(),
        }
    }
}

/// One (NL, SQL) benchmark sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Stable sample id within its split.
    pub id: usize,
    /// Database this sample queries.
    pub db_id: String,
    /// Domain of that database.
    pub domain: DomainId,
    /// NL question variants; the first is the canonical question. QVT uses
    /// samples with two or more variants.
    pub variants: Vec<String>,
    /// Gold SQL text.
    pub sql: String,
    /// Gold SQL parsed.
    pub query: Query,
    /// Spider hardness bucket.
    pub hardness: Hardness,
    /// BIRD-style difficulty bucket.
    pub bird_difficulty: BirdDifficulty,
    /// Extracted SQL features (for the dataset filter).
    pub features: SqlFeatures,
    /// Robustness perturbation applied to this sample, if any (Dr.Spider
    /// style; see `crate::perturb`).
    pub perturbation: Option<crate::perturb::Perturbation>,
}

impl Sample {
    /// The canonical NL question.
    pub fn question(&self) -> &str {
        &self.variants[0]
    }
}

/// A full benchmark: databases plus train/dev splits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    /// Which benchmark family this imitates.
    pub kind: CorpusKind,
    /// All databases, train and dev, by id.
    pub databases: BTreeMap<String, GeneratedDb>,
    /// Ids of the training databases.
    pub train_db_ids: Vec<String>,
    /// Ids of the dev databases.
    pub dev_db_ids: Vec<String>,
    /// Training samples (over training databases).
    pub train: Vec<Sample>,
    /// Dev samples (over dev databases).
    pub dev: Vec<Sample>,
}

impl Corpus {
    /// Database for a sample.
    pub fn db(&self, sample: &Sample) -> &GeneratedDb {
        &self.databases[&sample.db_id]
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of training databases.
    pub train_dbs: usize,
    /// Number of dev databases.
    pub dev_dbs: usize,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of dev samples.
    pub dev_samples: usize,
    /// Probability that a dev sample gets 2–4 NL variants (QVT fodder).
    pub variant_prob: f64,
    /// Master seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// Full-size Spider-like corpus: 140 train DBs / 20 dev DBs,
    /// 7000 train / 1034 dev samples — matching the paper's setup.
    pub fn spider(seed: u64) -> Self {
        Self {
            train_dbs: 140,
            dev_dbs: 20,
            train_samples: 7000,
            dev_samples: 1034,
            variant_prob: 0.5,
            seed,
        }
    }

    /// Full-size BIRD-like corpus: 1534 dev samples as in the paper's
    /// experiments; training scaled to keep generation quick.
    pub fn bird(seed: u64) -> Self {
        Self {
            train_dbs: 40,
            dev_dbs: 11,
            train_samples: 3000,
            dev_samples: 1534,
            variant_prob: 0.08,
            seed,
        }
    }

    /// A small corpus for tests and examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            train_dbs: 6,
            dev_dbs: 3,
            train_samples: 120,
            dev_samples: 60,
            variant_prob: 0.5,
            seed,
        }
    }
}

/// Recipe mixing weights per corpus kind.
fn recipe_weights(kind: CorpusKind) -> Vec<(Recipe, u32)> {
    match kind {
        CorpusKind::Spider => vec![
            (Recipe::SimpleSelect, 9),
            (Recipe::CountAll, 9),
            (Recipe::FilterSelect, 12),
            (Recipe::MultiColFilter, 10),
            (Recipe::OrderLimit, 8),
            (Recipe::GroupCount, 7),
            (Recipe::JoinSelect, 7),
            (Recipe::JoinFilter, 8),
            (Recipe::JoinGroup, 5),
            (Recipe::ScalarSubquery, 6),
            (Recipe::InSubquery, 9),
            (Recipe::GroupHavingOrder, 5),
            (Recipe::MultiJoinComplex, 9),
            (Recipe::SetOp, 3),
        ],
        CorpusKind::Bird => vec![
            (Recipe::SimpleSelect, 6),
            (Recipe::CountAll, 6),
            (Recipe::FilterSelect, 10),
            (Recipe::MultiColFilter, 10),
            (Recipe::OrderLimit, 8),
            (Recipe::GroupCount, 7),
            (Recipe::JoinSelect, 8),
            (Recipe::JoinFilter, 10),
            (Recipe::JoinGroup, 7),
            (Recipe::ScalarSubquery, 7),
            (Recipe::InSubquery, 7),
            (Recipe::GroupHavingOrder, 6),
            (Recipe::MultiJoinComplex, 6),
            (Recipe::SetOp, 3),
            (Recipe::CaseProjection, 7),
        ],
    }
}

fn pick_weighted(weights: &[(Recipe, u32)], rng: &mut StdRng) -> Recipe {
    let total: u32 = weights.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (r, w) in weights {
        if roll < *w {
            return *r;
        }
        roll -= w;
    }
    weights[0].0
}

/// Assign domains to `n` databases proportionally to each domain's
/// `train_db_weight` (every domain gets at least one when n permits).
fn assign_domains(n: usize, rng: &mut StdRng) -> Vec<DomainId> {
    let total_weight: u32 = DOMAINS.iter().map(|d| d.train_db_weight).sum();
    let mut out = Vec::with_capacity(n);
    if n >= DOMAINS.len() {
        // one of each first, then weighted remainder
        out.extend((0..DOMAINS.len()).map(DomainId));
    }
    while out.len() < n {
        let mut roll = rng.gen_range(0..total_weight);
        for (i, d) in DOMAINS.iter().enumerate() {
            if roll < d.train_db_weight {
                out.push(DomainId(i));
                break;
            }
            roll -= d.train_db_weight;
        }
    }
    out.truncate(n);
    out
}

/// Generate a corpus.
pub fn generate_corpus(kind: CorpusKind, config: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let profile = kind.schema_profile();

    // databases
    let train_domains = assign_domains(config.train_dbs, &mut rng);
    let dev_domains = assign_domains(config.dev_dbs, &mut rng);
    let mut databases = BTreeMap::new();
    let mut train_db_ids = Vec::new();
    let mut dev_db_ids = Vec::new();
    for (i, domain) in train_domains.iter().enumerate() {
        let db_id = format!("{}_train_{}", domain.spec().name.to_lowercase(), i);
        let seed = rng.gen();
        databases.insert(db_id.clone(), generate_db(&db_id, *domain, &profile, seed));
        train_db_ids.push(db_id);
    }
    for (i, domain) in dev_domains.iter().enumerate() {
        let db_id = format!("{}_dev_{}", domain.spec().name.to_lowercase(), i);
        let seed = rng.gen();
        databases.insert(db_id.clone(), generate_db(&db_id, *domain, &profile, seed));
        dev_db_ids.push(db_id);
    }

    let weights = recipe_weights(kind);
    let train = generate_split(
        &databases,
        &train_db_ids,
        config.train_samples,
        &weights,
        kind,
        0.0, // no variants needed on train
        &mut rng,
    );
    let dev = generate_split(
        &databases,
        &dev_db_ids,
        config.dev_samples,
        &weights,
        kind,
        config.variant_prob,
        &mut rng,
    );

    Corpus { kind, databases, train_db_ids, dev_db_ids, train, dev }
}

fn generate_split(
    databases: &BTreeMap<String, GeneratedDb>,
    db_ids: &[String],
    n_samples: usize,
    weights: &[(Recipe, u32)],
    kind: CorpusKind,
    variant_prob: f64,
    rng: &mut StdRng,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(n_samples);
    // Reject gold SQL that normalizes identically to an earlier sample on
    // the same database: duplicate gold samples double-count one query in
    // every metric and make cross-method comparisons noisier.
    let mut seen: std::collections::HashSet<(String, String)> =
        std::collections::HashSet::with_capacity(n_samples);
    let mut attempts = 0usize;
    let max_attempts = n_samples * 30;
    while out.len() < n_samples && attempts < max_attempts {
        attempts += 1;
        let db_id = &db_ids[out.len() % db_ids.len()];
        let db = &databases[db_id];
        let mut qg = QueryGenerator::new(db);
        qg.bird_flavor = kind == CorpusKind::Bird;
        let recipe = pick_weighted(weights, rng);
        let Some(g) = qg.generate(recipe, rng) else {
            continue;
        };
        // gold must execute
        if db.database.run_query(&g.query).is_err() {
            continue;
        }
        let normalized = sqlkit::to_sql(&sqlkit::normalize::normalize(&g.query));
        if !seen.insert((db_id.clone(), normalized)) {
            continue;
        }
        let n_variants = if rng.gen_bool(variant_prob) { rng.gen_range(2..=4) } else { 1 };
        let variants = render_variants(&g.parts, n_variants, rng);
        out.push(Sample {
            id: out.len(),
            db_id: db_id.clone(),
            domain: db.domain,
            variants,
            features: SqlFeatures::of(&g.query),
            bird_difficulty: BirdDifficulty::classify(&g.query),
            hardness: g.hardness,
            sql: g.sql,
            query: g.query,
            perturbation: None,
        });
    }
    assert!(
        out.len() == n_samples,
        "could only generate {} of {n_samples} samples",
        out.len()
    );
    out
}

/// Augment a corpus with extra *training* databases and samples in one
/// domain (paper §6, "Adaptive Training Data Generation": synthesize new
/// (NL, SQL) pairs for the domains where evaluation shows weakness).
///
/// Returns a new corpus whose train split gained `extra_dbs` databases of
/// `domain` with `samples_per_db` samples each; the dev split is untouched
/// so before/after evaluations stay comparable.
pub fn augment_corpus(
    corpus: &Corpus,
    domain: DomainId,
    extra_dbs: usize,
    samples_per_db: usize,
    seed: u64,
) -> Corpus {
    let mut out = corpus.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = corpus.kind.schema_profile();
    let weights = recipe_weights(corpus.kind);
    for i in 0..extra_dbs {
        let db_id = format!("{}_aug_{}", domain.spec().name.to_lowercase(), i);
        let db = generate_db(&db_id, domain, &profile, rng.gen());
        out.databases.insert(db_id.clone(), db);
        out.train_db_ids.push(db_id.clone());
        let new_samples = generate_split(
            &out.databases,
            std::slice::from_ref(&db_id),
            samples_per_db,
            &weights,
            corpus.kind,
            0.0,
            &mut rng,
        );
        let base_id = out.train.len();
        out.train.extend(new_samples.into_iter().enumerate().map(|(j, mut s)| {
            s.id = base_id + j;
            s
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spider() -> Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(42))
    }

    #[test]
    fn augmentation_adds_domain_data_without_touching_dev() {
        let base = tiny_spider();
        let domain = crate::domains::domain_by_name("Music").unwrap();
        let before_dbs =
            base.train_db_ids.iter().filter(|id| base.databases[*id].domain == domain).count();
        let aug = augment_corpus(&base, domain, 3, 10, 9);
        let after_dbs =
            aug.train_db_ids.iter().filter(|id| aug.databases[*id].domain == domain).count();
        assert_eq!(after_dbs, before_dbs + 3);
        assert_eq!(aug.train.len(), base.train.len() + 30);
        assert_eq!(aug.dev.len(), base.dev.len(), "dev split untouched");
        // new gold SQL executes
        for s in aug.train.iter().skip(base.train.len()) {
            aug.db(s).database.run_query(&s.query).expect("augmented gold executes");
            assert_eq!(s.domain, domain);
        }
        // ids stay unique
        let mut ids: Vec<usize> = aug.train.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), aug.train.len());
    }

    #[test]
    fn corpus_has_requested_shape() {
        let c = tiny_spider();
        assert_eq!(c.train.len(), 120);
        assert_eq!(c.dev.len(), 60);
        assert_eq!(c.train_db_ids.len(), 6);
        assert_eq!(c.dev_db_ids.len(), 3);
        assert_eq!(c.databases.len(), 9);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_spider();
        let b = tiny_spider();
        for (sa, sb) in a.dev.iter().zip(&b.dev) {
            assert_eq!(sa.sql, sb.sql);
            assert_eq!(sa.variants, sb.variants);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(1));
        let b = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(2));
        let differs = a.dev.iter().zip(&b.dev).any(|(x, y)| x.sql != y.sql);
        assert!(differs);
    }

    #[test]
    fn all_gold_queries_execute() {
        let c = tiny_spider();
        for s in c.train.iter().chain(&c.dev) {
            c.db(s)
                .database
                .run_query(&s.query)
                .unwrap_or_else(|e| panic!("gold `{}` fails: {e}", s.sql));
        }
    }

    #[test]
    fn dev_has_qvt_variants() {
        let c = tiny_spider();
        let with_variants = c.dev.iter().filter(|s| s.variants.len() >= 2).count();
        assert!(with_variants >= 10, "only {with_variants} dev samples have variants");
    }

    #[test]
    fn hardness_mix_covers_all_buckets() {
        let c = tiny_spider();
        for h in Hardness::ALL {
            let n = c.dev.iter().filter(|s| s.hardness == h).count()
                + c.train.iter().filter(|s| s.hardness == h).count();
            assert!(n > 0, "no samples at hardness {h}");
        }
    }

    #[test]
    fn bird_corpus_has_case_queries() {
        let c = generate_corpus(CorpusKind::Bird, &CorpusConfig::tiny(7));
        let with_case = c.dev.iter().chain(&c.train).filter(|s| s.features.has_case).count();
        assert!(with_case > 0, "BIRD-like corpus should include CASE/IIF");
    }

    #[test]
    fn samples_reference_their_split_dbs() {
        let c = tiny_spider();
        for s in &c.dev {
            assert!(c.dev_db_ids.contains(&s.db_id));
        }
        for s in &c.train {
            assert!(c.train_db_ids.contains(&s.db_id));
        }
    }

    #[test]
    fn domains_weighted_assignment() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = assign_domains(100, &mut rng);
        assert_eq!(d.len(), 100);
        // with n >= 33, every domain appears at least once
        let mut seen: Vec<usize> = d.iter().map(|x| x.0).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), DOMAINS.len());
    }
}
