//! The simulated translator: ties profiles, modules, prompts, restyling and
//! corruption together behind the [`Nl2SqlModel`] trait.
//!
//! **Simulation boundary.** A real NL2SQL system sees (question, database)
//! and produces SQL through a neural model; that step cannot run offline,
//! so [`SimulatedModel`] receives the gold query as an *oracle* and decides
//! — via its calibrated [`CapabilityProfile`] and a deterministic
//! per-(method, sample, variant) RNG — whether to emit a correct prediction
//! (possibly restyled, which preserves execution but often breaks exact
//! match) or a corrupted one (AST mutations from the method's error
//! palette). Everything downstream of this decision — prompt construction,
//! token/cost accounting, SQL text, execution, metric computation — is real
//! code operating on real SQL.

use crate::corruption::corrupt_prediction;
use crate::economy::count_tokens;
use crate::profiles::{fnv1a, hash_unit, CapabilityProfile, DatasetKind, SampleTraits};
use crate::modules::FewShotIndex;
use crate::dbprofile::DbProfile;
use crate::prompt::PromptPlan;
use crate::registry::{MethodSpec, Serving};
use crate::restyle::restyle;
use crate::taxonomy::PostProcessing;
use datagen::{GeneratedDb, Sample};
use minidb::{ExecResult, ResultSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::Query;

/// One translation request.
#[derive(Clone, Copy)]
pub struct TranslationTask<'a> {
    /// The benchmark sample (question, gold SQL, features).
    pub sample: &'a Sample,
    /// Which NL variant of the sample to translate (0 = canonical).
    pub variant: usize,
    /// The database the question targets.
    pub db: &'a GeneratedDb,
    /// `db`'s profile: the prompt profile prompt-based methods price their
    /// prompts from, the catalog StaticRepair resolves names against and
    /// the vocabulary corruptions draw columns from.
    pub profile: &'a DbProfile,
    /// Which benchmark this is.
    pub dataset: DatasetKind,
    /// Number of training databases in the sample's domain.
    pub domain_train_dbs: usize,
    /// Average training databases per domain.
    pub avg_domain_train_dbs: f64,
    /// Few-shot retrieval index over the training pool (None disables
    /// similarity-based example selection).
    pub few_shot: Option<&'a FewShotIndex<'a>>,
    /// The gold query's result on `db`, when the caller already holds it
    /// (the evaluator caches one per dev sample): the corruption engine
    /// compares its candidates with it instead of re-executing gold.
    /// `None` makes it execute gold itself. A prediction identical to gold
    /// carries no outcome of its own: this result is its outcome.
    pub gold_result: Option<&'a ResultSet>,
}

impl<'a> TranslationTask<'a> {
    /// The NL question text for the requested variant.
    pub fn question(&self) -> &'a str {
        self.sample
            .variants
            .get(self.variant)
            .map(String::as_str)
            .unwrap_or_else(|| self.sample.question())
    }
}

/// One prediction with its cost accounting.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted SQL text.
    pub sql: String,
    /// Parsed predicted query (always parseable — the simulation emits ASTs).
    pub query: Query,
    /// `query`'s outcome on the task's database when translation already
    /// executed it: a corruption's accepted candidate, which the corruption
    /// engine ran to check it is wrong. `None` for correct or restyled
    /// predictions, for the fallback literal and when StaticRepair changed
    /// the query; a scorer executes those itself.
    pub executed: Option<ExecResult<ResultSet>>,
    /// Prompt tokens spent (API methods; 0 for local models).
    pub prompt_tokens: u64,
    /// Completion tokens spent.
    pub completion_tokens: u64,
    /// Dollar cost of the API calls (0 for local models).
    pub cost_usd: f64,
    /// Latency in seconds (serving model for local methods, API latency
    /// model for prompt methods).
    pub latency_s: f64,
}

/// Anything that turns NL questions into SQL.
///
/// `Send + Sync` is a supertrait so one model instance can serve
/// translation requests from many worker threads concurrently (the `serve`
/// crate shares models behind references across its pool); `translate`
/// already takes `&self`, so implementations are stateless per call.
pub trait Nl2SqlModel: Send + Sync {
    /// The method's display name.
    fn name(&self) -> &str;

    /// Translate one task; `None` when the method does not support the
    /// dataset (e.g. DIN-SQL on BIRD in the paper).
    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction>;
}

/// The calibrated simulated model wrapping a registry [`MethodSpec`].
#[derive(Debug, Clone)]
pub struct SimulatedModel {
    spec: MethodSpec,
}

impl SimulatedModel {
    /// Wrap a method spec.
    pub fn new(spec: MethodSpec) -> Self {
        Self { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &MethodSpec {
        &self.spec
    }

    /// Deterministic per-(sample[, variant]) RNG. `with_method` salts the
    /// stream with the method name; the correctness draw deliberately omits
    /// it (common random numbers), so method comparisons are *paired*: a
    /// stronger profile dominates a weaker one sample-by-sample rather than
    /// merely in expectation, keeping leaderboard ranks faithful to the
    /// calibration on finite dev splits.
    fn rng(
        &self,
        task: &TranslationTask<'_>,
        salt: &str,
        with_variant: bool,
        with_method: bool,
    ) -> StdRng {
        let variant = if with_variant { task.variant as u64 } else { u64::MAX };
        let method = if with_method { self.spec.name.as_bytes() } else { b"".as_slice() };
        let seed = fnv1a(&[
            method,
            salt.as_bytes(),
            task.sample.db_id.as_bytes(),
            &(task.sample.id as u64).to_le_bytes(),
            &variant.to_le_bytes(),
            &(matches!(task.dataset, DatasetKind::Bird) as u64).to_le_bytes(),
        ]);
        StdRng::seed_from_u64(seed)
    }

    /// Decide whether this (sample, variant) yields a correct prediction.
    ///
    /// The canonical question (variant 0) follows the calibrated probability
    /// directly — benchmark accuracies are measured on it. Paraphrase
    /// variants flip the canonical outcome with the method's instability,
    /// which is what QVT measures (fine-tuned models are stable under
    /// paraphrase — Finding 6).
    fn decide_correct(&self, task: &TranslationTask<'_>, p: f64) -> bool {
        // common-random-numbers draw: u is shared across methods
        let mut canon_rng = self.rng(task, "outcome", false, false);
        let u: f64 = canon_rng.gen();
        let canonical = u < p;
        if task.variant == 0 {
            return canonical;
        }
        let mut flip_rng = self.rng(task, "variant-flip", true, true);
        let flip = flip_rng.gen_bool(self.spec.profile.variant_instability);
        canonical ^ flip
    }

    fn traits<'a>(&self, task: &'a TranslationTask<'_>) -> SampleTraits<'a> {
        let domain_bias_unit = hash_unit(fnv1a(&[
            self.spec.name.as_bytes(),
            task.sample.domain.spec().name.as_bytes(),
        ]));
        SampleTraits {
            dataset: task.dataset,
            hardness: task.sample.hardness,
            bird_difficulty: task.sample.bird_difficulty,
            features: &task.sample.features,
            domain_train_dbs: task.domain_train_dbs,
            avg_domain_train_dbs: task.avg_domain_train_dbs,
            domain_bias_unit,
            perturbation: task.sample.perturbation,
        }
    }

    /// The calibrated profile (exposed for the AAS search).
    pub fn profile(&self) -> &CapabilityProfile {
        &self.spec.profile
    }

    /// Fast path for fitness evaluation: produce only the predicted query
    /// and its outcome when already executed ([`Prediction::executed`]),
    /// skipping prompt construction and economy accounting. Identical
    /// prediction to [`Nl2SqlModel::translate`] for the same task.
    pub fn predict_query_only(
        &self,
        task: &TranslationTask<'_>,
    ) -> Option<(Query, Option<ExecResult<ResultSet>>)> {
        let p = self.spec.profile.p_correct(&self.traits(task))?;
        Some(self.predict(task, p))
    }

    /// The prediction both paths share: decide correctness, then restyle
    /// the gold query (correct intent; EM may break, EX holds) or corrupt
    /// it from the method's error palette, then apply the method's static
    /// repair. Returns the query with the outcome corruption executed it
    /// to, while that is still the query's.
    fn predict(
        &self,
        task: &TranslationTask<'_>,
        p: f64,
    ) -> (Query, Option<ExecResult<ResultSet>>) {
        let correct = self.decide_correct(task, p);
        let mut style_rng = self.rng(task, "style", true, true);
        let (mut pred_query, mut executed) = if correct {
            let mut pred_query = task.sample.query.clone();
            let alignment = self.spec.profile.em_alignment(task.sample.hardness);
            if !style_rng.gen_bool(alignment.clamp(0.0, 1.0)) {
                let _ = restyle(&mut pred_query, &mut style_rng);
            }
            (pred_query, None)
        } else {
            corrupt_prediction(
                &task.sample.query,
                self.spec.class,
                task.db,
                &task.profile.vocab,
                task.gold_result,
                &mut style_rng,
            )
        };
        if self.spec.modules.post == PostProcessing::StaticRepair
            && crate::repair::static_repair(&mut pred_query, &task.profile.catalog)
        {
            // corruption ran the query before its repair
            executed = None;
        }
        (pred_query, executed)
    }
}

impl Nl2SqlModel for SimulatedModel {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn translate(&self, task: &TranslationTask<'_>) -> Option<Prediction> {
        let _span = obs::span("modelzoo.translate");
        let p = self.spec.profile.p_correct(&self.traits(task))?;

        let (pred_query, executed) = {
            let _decode = obs::span("modelzoo.decode");
            self.predict(task, p)
        };
        // surface-form finalization
        let sql = {
            let _post = obs::span("modelzoo.post_process");
            sqlkit::to_sql(&pred_query)
        };

        // economy accounting
        let (prompt_tokens, completion_tokens, cost_usd, latency_s) = match &self.spec.serving {
            Serving::Api(pricing) => {
                debug_assert!(task.profile.describes(task.db), "profile of another database");
                let acc = PromptPlan::new(
                    self.spec.name,
                    &self.spec.modules,
                    &task.profile.prompt,
                    task.question(),
                    task.few_shot,
                )
                .accounting(sql.len());
                let cost = pricing.cost(acc.prompt_tokens, acc.completion_tokens);
                // API latency: proportional to tokens moved (~50 tok/s
                // generation + fixed round trips)
                let latency =
                    0.6 + acc.prompt_tokens as f64 / 4000.0 + acc.completion_tokens as f64 / 50.0;
                (acc.prompt_tokens, acc.completion_tokens, cost, latency)
            }
            Serving::Local(serving) => {
                let key = fnv1a(&[
                    task.sample.db_id.as_bytes(),
                    &(task.sample.id as u64).to_le_bytes(),
                ]);
                let latency = serving.sample_latency_s(self.spec.name, key);
                (0, count_tokens(&sql), 0.0, latency)
            }
        };

        Some(Prediction {
            sql,
            query: pred_query,
            executed,
            prompt_tokens,
            completion_tokens,
            cost_usd,
            latency_s,
        })
    }
}

/// Instantiate the full zoo as ready-to-run models.
pub fn zoo() -> Vec<SimulatedModel> {
    crate::registry::all_methods().into_iter().map(SimulatedModel::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::method_by_name;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use std::collections::HashMap;

    type Profiles<'a> = HashMap<&'a str, DbProfile>;

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(21))
    }

    /// Profiles of every database of a corpus, by id.
    fn profiles(c: &datagen::Corpus) -> Profiles<'_> {
        c.databases.iter().map(|(id, db)| (id.as_str(), DbProfile::new(db))).collect()
    }

    fn task<'a>(
        c: &'a datagen::Corpus,
        profiles: &'a Profiles<'a>,
        i: usize,
    ) -> TranslationTask<'a> {
        let s = &c.dev[i];
        TranslationTask {
            sample: s,
            variant: 0,
            db: c.db(s),
            profile: &profiles[s.db_id.as_str()],
            dataset: DatasetKind::Spider,
            domain_train_dbs: 4,
            avg_domain_train_dbs: 4.2,
            few_shot: None,
            gold_result: None,
        }
    }

    #[test]
    fn translation_is_deterministic() {
        let c = corpus();
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("DAILSQL").unwrap());
        let a = m.translate(&task(&c, &profiles, 0)).unwrap();
        let b = m.translate(&task(&c, &profiles, 0)).unwrap();
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.prompt_tokens, b.prompt_tokens);
    }

    #[test]
    fn predictions_always_parse() {
        let c = corpus();
        let profiles = profiles(&c);
        for m in zoo() {
            for i in 0..10 {
                if let Some(p) = m.translate(&task(&c, &profiles, i)) {
                    sqlkit::parse_query(&p.sql)
                        .unwrap_or_else(|e| panic!("{}: `{}`: {e}", m.name(), p.sql));
                }
            }
        }
    }

    #[test]
    fn accuracy_tracks_profile_on_aggregate() {
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(33));
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("SFT CodeS-7B").unwrap());
        let mut correct = 0;
        let mut total = 0;
        for i in 0..c.dev.len() {
            let t = task(&c, &profiles, i);
            let p = m.translate(&t).unwrap();
            let gold = c.db(t.sample).database.run_query(&t.sample.query).unwrap();
            total += 1;
            if let Ok(rs) = c.db(t.sample).database.run_query(&p.query) {
                if minidb::results_equivalent(&gold, &rs) {
                    correct += 1;
                }
            }
        }
        let ex = correct as f64 / total as f64 * 100.0;
        // profile overall ≈ 85; allow generous tolerance on 60 samples
        assert!((65.0..=100.0).contains(&ex), "EX {ex}");
    }

    #[test]
    fn dinsql_declines_bird() {
        let c = corpus();
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("DINSQL").unwrap());
        let mut t = task(&c, &profiles, 0);
        t.dataset = DatasetKind::Bird;
        assert!(m.translate(&t).is_none());
    }

    #[test]
    fn api_methods_report_tokens_and_cost() {
        let c = corpus();
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("DAILSQL").unwrap());
        let p = m.translate(&task(&c, &profiles, 1)).unwrap();
        assert!(p.prompt_tokens > 0);
        assert!(p.cost_usd > 0.0);
        assert!(p.latency_s > 0.0);
    }

    #[test]
    fn local_methods_report_latency_not_cost() {
        let c = corpus();
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("RESDSQL-3B").unwrap());
        let p = m.translate(&task(&c, &profiles, 1)).unwrap();
        assert_eq!(p.prompt_tokens, 0);
        assert_eq!(p.cost_usd, 0.0);
        assert!(p.latency_s > 1.0);
    }

    #[test]
    fn variants_usually_agree_for_stable_models() {
        let c = corpus();
        let profiles = profiles(&c);
        let m = SimulatedModel::new(method_by_name("SFT CodeS-15B").unwrap());
        let mut agree = 0;
        let mut total = 0;
        for i in 0..c.dev.len() {
            let s = &c.dev[i];
            if s.variants.len() < 2 {
                continue;
            }
            let mut t = task(&c, &profiles, i);
            let p0 = m.translate(&t).unwrap();
            t.variant = 1;
            let p1 = m.translate(&t).unwrap();
            total += 1;
            // correctness agreement, not textual agreement
            let gold = c.db(s).database.run_query(&s.query).unwrap();
            let ok = |p: &Prediction| {
                c.db(s)
                    .database
                    .run_query(&p.query)
                    .map(|rs| minidb::results_equivalent(&gold, &rs))
                    .unwrap_or(false)
            };
            if ok(&p0) == ok(&p1) {
                agree += 1;
            }
        }
        assert!(total >= 5);
        assert!(agree * 10 >= total * 8, "stable model agreement {agree}/{total}");
    }

    #[test]
    fn zoo_instantiates_everything() {
        assert_eq!(zoo().len(), 16);
    }

    #[test]
    fn static_repair_applies_identically_in_both_prediction_paths() {
        let c = corpus();
        let profiles = profiles(&c);
        let mut spec = method_by_name("SFT CodeS-7B").unwrap();
        spec.modules.post = crate::taxonomy::PostProcessing::StaticRepair;
        let repaired = SimulatedModel::new(spec);
        let baseline = SimulatedModel::new(method_by_name("SFT CodeS-7B").unwrap());
        assert_ne!(baseline.spec.modules.post, crate::taxonomy::PostProcessing::StaticRepair);

        let mut changed = 0;
        for i in 0..c.dev.len() {
            let t = task(&c, &profiles, i);
            // fast path and full path must produce the same repaired query
            let full = repaired.translate(&t).unwrap();
            let (fast, executed) = repaired.predict_query_only(&t).unwrap();
            assert_eq!(full.query, fast, "paths diverge on sample {i}");
            assert_eq!(full.sql, sqlkit::to_sql(&fast));
            assert_eq!(full.executed, executed, "outcomes diverge on sample {i}");
            if baseline.predict_query_only(&t).unwrap().0 != fast {
                changed += 1;
            }
        }
        // the module must actually fire on some corrupted predictions
        assert!(changed > 0, "static repair never changed a prediction");
    }
}
