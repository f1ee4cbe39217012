//! The evaluation executor: runs models over benchmark corpora and logs
//! every outcome (paper §3, "Executor and Logs").
//!
//! The executor pre-computes gold execution results once per corpus, builds
//! the few-shot retrieval index once, translates every (sample, variant)
//! pair through a model, executes both gold and predicted SQL on `minidb`,
//! and records EX/EM outcomes together with token/cost/latency accounting.
//! The resulting [`EvalLog`] is the single source every metric and report
//! reads from.

use datagen::{regenerate_content, Corpus, CorpusKind, GeneratedDb, Sample};
use minidb::{results_equivalent, ExecError, ExecResult, ResultSet};
use modelzoo::modules::FewShotIndex;
use modelzoo::{DatasetKind, DbProfile, Nl2SqlModel, SimulatedModel, TranslationTask};
use serde::{Deserialize, Serialize};
use sqlkit::hardness::{BirdDifficulty, Hardness};
use sqlkit::SqlFeatures;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Why a predicted query failed to execute: the [`minidb::ExecError`] kind
/// flattened to a serializable label, so stored logs keep failure *modes*
/// and not just the boolean EX outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExecFailureKind {
    /// The SQL text failed to parse.
    Parse,
    /// A referenced table does not exist.
    UnknownTable,
    /// A referenced column does not exist in scope.
    UnknownColumn,
    /// A column reference matched more than one table in scope.
    AmbiguousColumn,
    /// A table with this name already exists.
    DuplicateTable,
    /// Mismatched arity.
    Arity,
    /// Type error during evaluation.
    Type,
    /// Unsupported construct reached the executor.
    Unsupported,
    /// Scalar subquery returned more than one row/column.
    CardinalityViolation,
    /// Resource guard tripped.
    ResourceExhausted,
}

impl ExecFailureKind {
    /// Every kind, in declaration order (matching `kind as usize`), so
    /// per-kind counter arrays can be walked back into labeled reports.
    pub const ALL: [ExecFailureKind; 10] = [
        ExecFailureKind::Parse,
        ExecFailureKind::UnknownTable,
        ExecFailureKind::UnknownColumn,
        ExecFailureKind::AmbiguousColumn,
        ExecFailureKind::DuplicateTable,
        ExecFailureKind::Arity,
        ExecFailureKind::Type,
        ExecFailureKind::Unsupported,
        ExecFailureKind::CardinalityViolation,
        ExecFailureKind::ResourceExhausted,
    ];

    /// Classify an execution error.
    pub fn of(e: &ExecError) -> Self {
        match e {
            ExecError::Parse(_) => ExecFailureKind::Parse,
            ExecError::UnknownTable(_) => ExecFailureKind::UnknownTable,
            ExecError::UnknownColumn(_) => ExecFailureKind::UnknownColumn,
            ExecError::AmbiguousColumn(_) => ExecFailureKind::AmbiguousColumn,
            ExecError::DuplicateTable(_) => ExecFailureKind::DuplicateTable,
            ExecError::Arity(_) => ExecFailureKind::Arity,
            ExecError::Type(_) => ExecFailureKind::Type,
            ExecError::Unsupported(_) => ExecFailureKind::Unsupported,
            ExecError::CardinalityViolation(_) => ExecFailureKind::CardinalityViolation,
            ExecError::ResourceExhausted(_) => ExecFailureKind::ResourceExhausted,
        }
    }

    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ExecFailureKind::Parse => "parse",
            ExecFailureKind::UnknownTable => "unknown table",
            ExecFailureKind::UnknownColumn => "unknown column",
            ExecFailureKind::AmbiguousColumn => "ambiguous column",
            ExecFailureKind::DuplicateTable => "duplicate table",
            ExecFailureKind::Arity => "arity",
            ExecFailureKind::Type => "type",
            ExecFailureKind::Unsupported => "unsupported",
            ExecFailureKind::CardinalityViolation => "cardinality",
            ExecFailureKind::ResourceExhausted => "resource exhausted",
        }
    }
}

/// What the static analyzer said about a predicted query, recorded next
/// to the dynamic outcome so error analyses can cross-tabulate "flagged
/// before execution" against "failed during execution".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticVerdict {
    /// No Error-severity diagnostics: the analyzer would have admitted
    /// this query.
    pub clean: bool,
    /// Stable ids of every rule that fired (warnings included), deduped
    /// in registry order.
    pub rules: Vec<String>,
}

/// How a predicted query matched the gold query, on a ladder from strict
/// surface equality to semantic equality the canonicalizer can prove.
/// Recorded next to the boolean `em` so EM false negatives — pairs the
/// exact matcher rejects but [`sqlcheck::equiv`] proves equivalent —
/// become a measured quantity instead of an anecdote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MatchKind {
    /// Spider-style exact match ([`sqlkit::exact_match`]).
    Syntactic,
    /// Not an exact match, but the [`sqlcheck::equiv`] canonical forms
    /// are identical: a proven EM false negative.
    Canonical,
    /// Neither — the canonicalizer cannot prove the pair equal.
    Unmatched,
}

impl MatchKind {
    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            MatchKind::Syntactic => "syntactic",
            MatchKind::Canonical => "canonical",
            MatchKind::Unmatched => "unmatched",
        }
    }
}

/// Outcome of one NL variant of one sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantRecord {
    /// Execution accuracy: predicted SQL executed and its result multiset
    /// matched the gold result.
    pub ex: bool,
    /// Spider-style exact match of the predicted AST against the gold AST.
    pub em: bool,
    /// The predicted SQL text.
    pub pred_sql: String,
    /// Work units of the predicted execution (None if it failed).
    pub pred_work: Option<u64>,
    /// Why execution failed, when it did (None on success or mere result
    /// mismatch). Defaulted so logs written before this field deserialize.
    #[serde(default)]
    pub exec_failure: Option<ExecFailureKind>,
    /// Static analysis of the predicted SQL, present only when the run
    /// asked for it ([`EvalOptions::static_check`]). Defaulted so logs
    /// written before this field deserialize.
    #[serde(default)]
    pub static_verdict: Option<StaticVerdict>,
    /// Where the prediction sits on the syntactic → semantic match
    /// ladder, present only when the run asked for it
    /// ([`EvalOptions::match_kind`]). Defaulted so logs written before
    /// this field deserialize.
    #[serde(default)]
    pub match_kind: Option<MatchKind>,
    /// Prompt tokens spent.
    pub prompt_tokens: u64,
    /// Completion tokens spent.
    pub completion_tokens: u64,
    /// API cost in dollars.
    pub cost_usd: f64,
    /// Latency in seconds.
    pub latency_s: f64,
}

/// Everything recorded about one benchmark sample for one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Sample id within the dev split.
    pub sample_id: usize,
    /// Database id.
    pub db_id: String,
    /// Domain name.
    pub domain: String,
    /// Spider hardness.
    pub hardness: Hardness,
    /// BIRD difficulty.
    pub bird_difficulty: BirdDifficulty,
    /// Gold SQL features (drives the dataset filter).
    pub features: SqlFeatures,
    /// Gold SQL text.
    pub gold_sql: String,
    /// Work units of the gold execution.
    pub gold_work: u64,
    /// Per-variant outcomes; index 0 is the canonical question.
    pub variants: Vec<VariantRecord>,
}

impl SampleRecord {
    /// The canonical-variant outcome.
    pub fn canonical(&self) -> &VariantRecord {
        &self.variants[0]
    }
}

/// A full evaluation log: one method over one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalLog {
    /// Method name.
    pub method: String,
    /// Method class label ("LLM (P)", "LLM (FT)", "PLM (FT)", "Hybrid").
    pub class_label: String,
    /// Dataset name ("Spider" / "BIRD").
    pub dataset: String,
    /// Per-sample records.
    pub records: Vec<SampleRecord>,
}

/// Options for [`EvalContext::evaluate_with`] — the single evaluation
/// entry point. Built with chained setters:
///
/// ```ignore
/// let log = ctx.evaluate_with(&model, &EvalOptions::new().subset(50).workers(4));
/// ```
///
/// Defaults: the full dev split, a pool of [`default_workers`] threads.
/// The resulting [`EvalLog`] is byte-identical at any worker count, with
/// the obs recorder on or off (test-enforced); `workers` affects only
/// wall-clock. To record a run, hold an [`obs::enable`] guard around it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOptions {
    subset: Option<usize>,
    workers: Option<usize>,
    static_check: bool,
    match_kind: bool,
}

impl EvalOptions {
    /// Options with all defaults (full split, default pool).
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate only the first `n` dev samples (clamped to the split size).
    pub fn subset(mut self, n: usize) -> Self {
        self.subset = Some(n);
        self
    }

    /// Threads claiming samples, the calling one included; `1` evaluates on
    /// the calling thread without spawning.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The worker count this evaluation will use.
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// Record a [`StaticVerdict`] for every predicted query. Purely
    /// additive: every other field of the log is byte-identical with the
    /// check off (test-enforced).
    pub fn static_check(mut self, on: bool) -> Self {
        self.static_check = on;
        self
    }

    /// Record a [`MatchKind`] for every predicted query: the boolean `em`
    /// refined by the [`sqlcheck::equiv`] canonicalizer (no witness
    /// search — this stays cheap enough for the hot loop). Purely
    /// additive: every other field of the log is byte-identical with
    /// recording off (test-enforced).
    pub fn match_kind(mut self, on: bool) -> Self {
        self.match_kind = on;
        self
    }
}

/// How one prediction scored against its dev sample: what an evaluation
/// log records and a served reply carries, from [`EvalContext::judge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// The prediction executed and its result matched gold on the primary
    /// database and on every test-suite instance.
    pub ex: bool,
    /// Spider-style exact match against the gold AST.
    pub em: bool,
    /// Work units of the primary execution (None if it failed).
    pub pred_work: Option<u64>,
    /// Why the primary execution failed, when it did.
    pub exec_failure: Option<ExecFailureKind>,
}

/// Evaluation context over one corpus: gold executions cached, few-shot
/// index built, domain statistics derived, database profiles built on
/// demand. It owns what a prediction is translated against
/// ([`task`](Self::task)) and scored against ([`judge`](Self::judge)).
pub struct EvalContext<'a> {
    /// The corpus being evaluated.
    pub corpus: &'a Corpus,
    /// Dataset kind for profile lookups.
    pub dataset: DatasetKind,
    few_shot: FewShotIndex<'a>,
    gold_results: Vec<ResultSet>,
    domain_train_counts: HashMap<usize, usize>,
    avg_domain_train: f64,
    /// Extra database instances for Spider-style *test-suite* execution
    /// accuracy: a prediction only scores EX if its results match gold on
    /// the primary instance AND on every suite instance.
    suite: Vec<HashMap<String, GeneratedDb>>,
    suite_gold: Vec<Vec<Option<ResultSet>>>,
    /// Per-database profiles (prompt profile, schema catalog, column
    /// vocabulary), each built by the first translation or check against
    /// its database, so databases nothing reads cost nothing.
    profiles: HashMap<&'a str, OnceLock<DbProfile>>,
}

impl<'a> EvalContext<'a> {
    /// Build a context: executes every gold query once and indexes the
    /// training pool.
    ///
    /// # Panics
    /// Panics if a gold query fails to execute — corpora guarantee
    /// executable gold SQL, so a failure means corpus corruption.
    pub fn new(corpus: &'a Corpus) -> Self {
        Self::with_test_suite(corpus, 0)
    }

    /// Build a context with `extra_instances` additional content
    /// regenerations per dev database (Spider test-suite accuracy). `0`
    /// reduces to plain single-instance EX.
    pub fn with_test_suite(corpus: &'a Corpus, extra_instances: usize) -> Self {
        let dataset = match corpus.kind {
            CorpusKind::Spider => DatasetKind::Spider,
            CorpusKind::Bird => DatasetKind::Bird,
        };
        let gold_results = corpus
            .dev
            .iter()
            .map(|s| {
                corpus
                    .db(s)
                    .database
                    .run_query(&s.query)
                    .unwrap_or_else(|e| panic!("gold `{}` failed: {e}", s.sql))
            })
            .collect();
        let mut domain_train_counts: HashMap<usize, usize> = HashMap::new();
        for db_id in &corpus.train_db_ids {
            let d = corpus.databases[db_id].domain;
            *domain_train_counts.entry(d.0).or_insert(0) += 1;
        }
        // Average over domains actually present in the training pool, not
        // the full domain catalog: corpora rarely cover every domain, and
        // dividing by `DOMAINS.len()` deflated the average whenever some
        // domains had no training databases at all.
        let avg_domain_train = if domain_train_counts.is_empty() {
            0.0
        } else {
            corpus.train_db_ids.len() as f64 / domain_train_counts.len() as f64
        };
        // regenerate dev database content for each suite instance and
        // pre-execute gold queries on them
        let profile = corpus.kind.schema_profile();
        let mut suite = Vec::with_capacity(extra_instances);
        let mut suite_gold = Vec::with_capacity(extra_instances);
        for j in 0..extra_instances {
            let mut instance = HashMap::new();
            for db_id in &corpus.dev_db_ids {
                let regenerated = regenerate_content(
                    &corpus.databases[db_id],
                    &profile,
                    0x7e57_0000 ^ (j as u64) << 32 ^ fxhash(db_id),
                );
                instance.insert(db_id.clone(), regenerated);
            }
            let golds = corpus
                .dev
                .iter()
                .map(|s| instance[&s.db_id].database.run_query(&s.query).ok())
                .collect();
            suite.push(instance);
            suite_gold.push(golds);
        }
        let profiles = corpus.databases.keys().map(|id| (id.as_str(), OnceLock::new())).collect();
        Self {
            corpus,
            dataset,
            few_shot: FewShotIndex::new(&corpus.train),
            gold_results,
            domain_train_counts,
            avg_domain_train,
            suite,
            suite_gold,
            profiles,
        }
    }

    /// Number of extra test-suite instances.
    pub fn suite_size(&self) -> usize {
        self.suite.len()
    }

    /// Number of training databases in a sample's domain.
    pub fn domain_train_dbs(&self, sample: &Sample) -> usize {
        self.domain_train_counts.get(&sample.domain.0).copied().unwrap_or(0)
    }

    /// Average number of training databases per domain.
    pub fn avg_domain_train_dbs(&self) -> f64 {
        self.avg_domain_train
    }

    /// Database `db_id`'s profile, built by the first call that needs it;
    /// `None` when the corpus has no such database.
    fn profile(&self, db_id: &str) -> Option<&DbProfile> {
        let db = self.corpus.databases.get(db_id)?;
        Some(self.profiles[db_id].get_or_init(|| DbProfile::new(db)))
    }

    /// Database `db_id`'s schema catalog, from its profile.
    pub fn catalog(&self, db_id: &str) -> Option<&sqlcheck::Catalog> {
        self.profile(db_id).map(|p| &p.catalog)
    }

    /// Build the translation task for a (sample, variant) pair: the
    /// sample's database and its profile, and, when `sample` is one of this
    /// context's dev samples, its cached gold result, which spares the
    /// corruption check executing gold again.
    pub fn task(&'a self, sample: &'a Sample, variant: usize) -> TranslationTask<'a> {
        let gold_result = self.dev_index(sample).map(|i| &self.gold_results[i]);
        TranslationTask {
            sample,
            variant,
            db: self.corpus.db(sample),
            profile: self.profile(&sample.db_id).expect("a sample's database is in its corpus"),
            dataset: self.dataset,
            domain_train_dbs: self.domain_train_dbs(sample),
            avg_domain_train_dbs: self.avg_domain_train,
            few_shot: Some(&self.few_shot),
            gold_result,
        }
    }

    /// `sample`'s index in the dev split when it is one of this context's
    /// dev samples, found by address: a caller may reorder the split
    /// without renumbering `Sample::id`.
    fn dev_index(&self, sample: &Sample) -> Option<usize> {
        let dev = &self.corpus.dev;
        let offset = (sample as *const Sample as usize).checked_sub(dev.as_ptr() as usize)?;
        let i = offset / std::mem::size_of::<Sample>();
        dev.get(i).filter(|s| std::ptr::eq(*s, sample)).map(|_| i)
    }

    /// Cached gold result for dev sample `i`.
    pub fn gold_result(&self, i: usize) -> &ResultSet {
        &self.gold_results[i]
    }

    /// Evaluate one model according to `opts` — the single evaluation entry
    /// point. [`EvalOptions::default`] means: full dev split,
    /// [`default_workers`] claimers. Samples go through [`fan_out`] and come
    /// back in sample order, so the resulting [`EvalLog`] is byte-identical
    /// at any worker count (test-enforced, recorder on or off). The run
    /// records spans and counters while the caller holds an
    /// [`obs::enable`] guard. Returns `None` when the model does not run on
    /// this dataset.
    pub fn evaluate_with(&self, model: &dyn Nl2SqlModel, opts: &EvalOptions) -> Option<EvalLog> {
        let _span = obs::span("eval.run");
        let n = opts.subset.unwrap_or(usize::MAX).min(self.corpus.dev.len());
        // a model that refuses this dataset refuses every sample: None
        let records = fan_out(n, opts.worker_count(), |i| self.eval_sample(model, i, opts))?;
        Some(EvalLog {
            method: model.name().to_string(),
            class_label: class_label_of(model),
            dataset: self.corpus.kind.name().to_string(),
            records,
        })
    }

    /// Evaluate a single dev sample (all its NL variants). Pure in
    /// `(self, model, i)`, which is what makes the parallel fan-out safe:
    /// no evaluation-order state leaks between samples.
    fn eval_sample(
        &self,
        model: &dyn Nl2SqlModel,
        i: usize,
        opts: &EvalOptions,
    ) -> Option<SampleRecord> {
        let _span = obs::span("eval.sample");
        let sample = &self.corpus.dev[i];
        let mut variants = Vec::with_capacity(sample.variants.len());
        for v in 0..sample.variants.len() {
            let pred = model.translate(&self.task(sample, v))?;
            let Score { ex, em, pred_work, exec_failure } =
                self.score(i, &pred.query, pred.executed.as_ref());
            let static_verdict =
                opts.static_check.then(|| self.static_verdict(&sample.db_id, &pred.query));
            let match_kind = (opts.match_kind)
                .then(|| self.match_kind(&sample.db_id, &sample.query, &pred.query, em));
            variants.push(VariantRecord {
                ex,
                em,
                pred_sql: pred.sql,
                pred_work,
                exec_failure,
                static_verdict,
                match_kind,
                prompt_tokens: pred.prompt_tokens,
                completion_tokens: pred.completion_tokens,
                cost_usd: pred.cost_usd,
                latency_s: pred.latency_s,
            });
        }
        Some(SampleRecord {
            sample_id: sample.id,
            db_id: sample.db_id.clone(),
            domain: sample.domain.spec().name.to_string(),
            hardness: sample.hardness,
            bird_difficulty: sample.bird_difficulty,
            features: sample.features.clone(),
            gold_sql: sample.sql.clone(),
            gold_work: self.gold_results[i].work,
            variants,
        })
    }

    /// Score a prediction for dev sample `i` from its outcome on the
    /// sample's database, then [`judge`](Self::judge) it. The outcome is
    /// the one translation handed over (`executed`), else gold's cached
    /// result when the prediction is the gold query, else one execution:
    /// each prediction runs at most once, and nothing outlives the call.
    pub(crate) fn score(
        &self,
        i: usize,
        pred: &sqlkit::Query,
        executed: Option<&ExecResult<ResultSet>>,
    ) -> Score {
        let sample = &self.corpus.dev[i];
        let db = &self.corpus.db(sample).database;
        let ran;
        let outcome = match executed {
            Some(outcome) => outcome.as_ref(),
            None if *pred == sample.query => Ok(&self.gold_results[i]),
            None => {
                ran = db.run_query(pred);
                ran.as_ref()
            }
        };
        // A handed-over outcome must be what executing the prediction
        // gives; the check asks minidb's interpreter, whose outcomes equal
        // `run_query`'s (plan parity) and which leaves the dispatch
        // counters to real executions.
        if cfg!(debug_assertions) && (executed.is_some() || *pred == sample.query) {
            let fresh = minidb::exec::execute(db, pred);
            assert_eq!(outcome, fresh.as_ref(), "handed-over outcome of dev[{i}] is stale");
        }
        self.judge(i, pred, outcome.map_err(ExecFailureKind::of))
    }

    /// Score a prediction for dev sample `i` from its execution on the
    /// sample's database: EX against the cached gold result and every
    /// test-suite instance, EM against the gold AST. The one scorer behind
    /// evaluation logs, AAS fitness and served replies (which pass the
    /// outcome their cache holds). `executed` must be what executing
    /// `pred` gives, so a prediction that is the gold query and ran scores
    /// EX and EM without a comparison: gold's result on the primary
    /// database and on every suite instance is equivalent to itself, and
    /// gold matches itself exactly (both pinned by unit tests).
    pub fn judge(
        &self,
        i: usize,
        pred: &sqlkit::Query,
        executed: Result<&ResultSet, ExecFailureKind>,
    ) -> Score {
        if let (true, Ok(rs)) = (*pred == self.corpus.dev[i].query, executed) {
            let score = Score { ex: true, em: true, pred_work: Some(rs.work), exec_failure: None };
            // the interpreter runs the suite check here, so the dispatch
            // counters keep counting real executions only
            if cfg!(debug_assertions) {
                let full = self.judge_in_full(i, pred, executed, minidb::exec::execute);
                assert_eq!(score, full, "gold-identical prediction of dev[{i}]");
            }
            return score;
        }
        self.judge_in_full(i, pred, executed, |db, q| db.run_query(q))
    }

    /// [`judge`](Self::judge) without the gold-identical short cut, running
    /// the prediction on the suite instances with `run`.
    fn judge_in_full(
        &self,
        i: usize,
        pred: &sqlkit::Query,
        executed: Result<&ResultSet, ExecFailureKind>,
        run: impl Fn(&minidb::Database, &sqlkit::Query) -> ExecResult<ResultSet>,
    ) -> Score {
        let sample = &self.corpus.dev[i];
        // a suite instance whose gold cannot run confirms vacuously
        let suite_confirms = || {
            self.suite.iter().zip(&self.suite_gold).all(|(instance, golds)| {
                golds[i].as_ref().is_none_or(|gold_rs| {
                    let rs = run(&instance[&sample.db_id].database, pred);
                    rs.is_ok_and(|rs| results_equivalent(gold_rs, &rs))
                })
            })
        };
        let (ex, pred_work, exec_failure) = match executed {
            Ok(rs) => (
                results_equivalent(&self.gold_results[i], rs) && suite_confirms(),
                Some(rs.work),
                None,
            ),
            Err(kind) => (false, None, Some(kind)),
        };
        Score { ex, em: sqlkit::exact_match(&sample.query, pred), pred_work, exec_failure }
    }

    /// Analyze a predicted query against its database's schema catalog.
    pub fn static_verdict(&self, db_id: &str, pred: &sqlkit::Query) -> StaticVerdict {
        let Some(catalog) = self.catalog(db_id) else {
            return StaticVerdict { clean: true, rules: Vec::new() };
        };
        let diags = sqlcheck::analyze(catalog, pred);
        let clean = sqlcheck::is_clean(&diags);
        let rules = sqlcheck::rules_of(&diags).into_iter().map(|r| r.id().to_string()).collect();
        StaticVerdict { clean, rules }
    }

    /// Classify a prediction on the match ladder. `em` is the already-
    /// computed exact-match outcome; only EM failures pay for a
    /// canonicalization, and no witness search runs here — this is the
    /// static, hot-loop-safe slice of [`sqlcheck::equiv`].
    pub fn match_kind(
        &self,
        db_id: &str,
        gold: &sqlkit::Query,
        pred: &sqlkit::Query,
        em: bool,
    ) -> MatchKind {
        if em {
            MatchKind::Syntactic
        } else if sqlcheck::equiv::canonically_equal(gold, pred, self.catalog(db_id)) {
            MatchKind::Canonical
        } else {
            MatchKind::Unmatched
        }
    }

    /// Fast EX-only fitness for the AAS search: canonical variants of the
    /// first `n` dev samples via the model's query-only path.
    pub fn fitness_ex(&self, model: &SimulatedModel, n: usize) -> Option<f64> {
        let n = n.min(self.corpus.dev.len());
        let mut correct = 0usize;
        for (i, sample) in self.corpus.dev.iter().take(n).enumerate() {
            let (pred, executed) = model.predict_query_only(&self.task(sample, 0))?;
            if self.score(i, &pred, executed.as_ref()).ex {
                correct += 1;
            }
        }
        Some(correct as f64 / n as f64 * 100.0)
    }
}

/// Default evaluation worker count: the machine's available parallelism
/// (1 when it cannot be determined). Shared by the CLI `--parallel`
/// default, [`EvalContext::evaluate_with`], [`crate::evaluate_all`] and
/// [`crate::search`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The one parallel map of the evaluator and the AAS search: `f` over
/// `0..n`, results in index order. The calling thread and `workers - 1`
/// scoped threads (never more claimers than indices) pull the next
/// unclaimed index off one counter, so an expensive index never stalls a
/// fixed chunk behind it, and one worker spawns nothing. A `None` from `f`
/// stops the claiming and makes the whole map `None`.
pub fn fan_out<T: Send + Sync>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> Option<T> + Sync,
) -> Option<Vec<T>> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let claim = || {
        let _span = obs::span("eval.worker");
        let mut claimed = 0u64;
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            claimed += 1;
            obs::count("eval.claim", 1);
            match f(i) {
                // each index is claimed once, so its slot is still empty
                Some(v) => {
                    let _ = slots[i].set(v);
                }
                None => abort.store(true, Ordering::Relaxed),
            }
        }
        // pool-utilization profile: a flat histogram means even load; a
        // skewed one means stragglers
        obs::observe("eval.samples_per_worker", claimed);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(n) {
            s.spawn(claim);
        }
        claim();
    });
    // ordered merge: slot i holds f(i), whichever claimer produced it; a
    // slot left empty by a None empties the whole map
    let _merge = obs::span("eval.merge");
    obs::count("eval.merge", 1);
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// Small deterministic string hash for suite instance seeds.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn class_label_of(model: &dyn Nl2SqlModel) -> String {
    // SimulatedModel exposes its class through the spec; other
    // implementations default to "Custom".
    model_class_label(model.name())
}

/// Class label from the registry, falling back to "Custom".
pub fn model_class_label(name: &str) -> String {
    modelzoo::method_by_name(name)
        .map(|m| m.class.label().to_string())
        .unwrap_or_else(|| "Custom".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig};
    use modelzoo::method_by_name;

    fn ctx_corpus() -> Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(77))
    }

    #[test]
    fn eval_context_is_shareable_across_threads() {
        // fan_out's claimers, serve's request threads and the cluster
        // worker's stream threads all share one context by reference;
        // losing Send + Sync on EvalContext would break each of them, so
        // pin it here at the source.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext<'static>>();
    }

    #[test]
    fn fan_out_returns_results_in_index_order_at_any_worker_count() {
        for n in [0usize, 1, 2, 7] {
            let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
            for workers in [1, 2, n + 3] {
                assert_eq!(fan_out(n, workers, |i| Some(i * i)), Some(expected.clone()), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn fan_out_is_none_when_any_call_is() {
        for workers in [1usize, 2, 9] {
            assert_eq!(fan_out(6, workers, |i| (i != 3).then_some(i)), None, "workers={workers}");
            assert_eq!(fan_out(6, workers, |_| None::<usize>), None, "workers={workers}");
        }
    }

    #[test]
    fn fan_out_at_one_worker_runs_every_call_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fan_out(5, 1, |_| Some(std::thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn evaluate_produces_full_log() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("SFT CodeS-7B").unwrap());
        let log = ctx.evaluate_with(&m, &EvalOptions::new()).unwrap();
        assert_eq!(log.records.len(), corpus.dev.len());
        assert_eq!(log.method, "SFT CodeS-7B");
        assert_eq!(log.class_label, "LLM (FT)");
        for r in &log.records {
            assert!(!r.variants.is_empty());
            assert!(r.gold_work > 0);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("DAILSQL").unwrap());
        let a = ctx.evaluate_with(&m, &EvalOptions::new()).unwrap();
        let b = ctx.evaluate_with(&m, &EvalOptions::new()).unwrap();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.canonical().pred_sql, rb.canonical().pred_sql);
            assert_eq!(ra.canonical().ex, rb.canonical().ex);
        }
    }

    #[test]
    fn em_implies_nothing_about_ex_but_correlates() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("SFT CodeS-15B").unwrap());
        let log = ctx.evaluate_with(&m, &EvalOptions::new()).unwrap();
        let ex = log.records.iter().filter(|r| r.canonical().ex).count();
        let em = log.records.iter().filter(|r| r.canonical().em).count();
        assert!(ex > 0 && em > 0);
        assert!(em <= ex + 5, "EM should rarely exceed EX (em={em}, ex={ex})");
    }

    #[test]
    fn dinsql_refuses_bird_context() {
        let corpus = generate_corpus(CorpusKind::Bird, &CorpusConfig::tiny(78));
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("DINSQL").unwrap());
        assert!(ctx.evaluate_with(&m, &EvalOptions::new()).is_none());
    }

    #[test]
    fn subset_evaluation_truncates() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let log = ctx.evaluate_with(&m, &EvalOptions::new().subset(10)).unwrap();
        assert_eq!(log.records.len(), 10);
    }

    #[test]
    fn fitness_matches_full_evaluation_ex() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("SuperSQL").unwrap());
        let fit = ctx.fitness_ex(&m, 30).unwrap();
        let log = ctx.evaluate_with(&m, &EvalOptions::new().subset(30)).unwrap();
        let ex = log.records.iter().filter(|r| r.canonical().ex).count() as f64 / 30.0 * 100.0;
        assert!((fit - ex).abs() < 1e-9, "fitness {fit} vs eval {ex}");
    }

    #[test]
    fn test_suite_ex_is_stricter_than_single_instance() {
        let corpus = ctx_corpus();
        let plain = EvalContext::new(&corpus);
        let suite = EvalContext::with_test_suite(&corpus, 2);
        assert_eq!(suite.suite_size(), 2);
        let m = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let a = plain.evaluate_with(&m, &EvalOptions::new()).unwrap();
        let b = suite.evaluate_with(&m, &EvalOptions::new()).unwrap();
        let ex = |log: &EvalLog| log.records.iter().filter(|r| r.canonical().ex).count();
        // suite EX can only remove coincidental matches, never add them
        assert!(ex(&b) <= ex(&a), "suite {} vs single {}", ex(&b), ex(&a));
        // sample-level monotonicity
        for (ra, rb) in a.records.iter().zip(&b.records) {
            if rb.canonical().ex {
                assert!(ra.canonical().ex, "suite EX implies single-instance EX");
            }
        }
        // correct (non-restyled) predictions — identical to gold — must
        // still pass the suite
        for (i, rb) in b.records.iter().enumerate() {
            if rb.canonical().pred_sql == corpus.dev[i].sql {
                assert!(rb.canonical().ex, "gold-equal prediction must pass the suite");
            }
        }
    }

    #[test]
    fn gold_results_are_equivalent_to_themselves_on_every_instance() {
        // `judge` lets a gold-identical prediction skip the suite
        // instances: its result on each is that instance's gold result
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let corpus = generate_corpus(kind, &CorpusConfig::tiny(21));
            let ctx = EvalContext::with_test_suite(&corpus, 2);
            let mut checked = 0usize;
            for (i, sample) in corpus.dev.iter().enumerate() {
                let gold = ctx.gold_result(i);
                assert!(results_equivalent(gold, gold), "{kind:?} dev[{i}] primary");
                for (j, golds) in ctx.suite_gold.iter().enumerate() {
                    if let Some(gold) = &golds[i] {
                        assert!(results_equivalent(gold, gold), "{kind:?} dev[{i}] instance {j}");
                        checked += 1;
                    }
                }
                assert!(ctx.score(i, &sample.query, None).ex, "{kind:?} dev[{i}]");
            }
            assert!(checked > corpus.dev.len(), "{kind:?}: {checked} suite golds");
        }
    }

    #[test]
    fn gold_queries_exactly_match_themselves() {
        // `judge` scores a gold-identical prediction EM without comparing
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let corpus = generate_corpus(kind, &CorpusConfig::tiny(21));
            for (i, sample) in corpus.dev.iter().enumerate() {
                assert!(sqlkit::exact_match(&sample.query, &sample.query), "{kind:?} dev[{i}]");
            }
        }
    }

    #[test]
    fn tasks_of_dev_samples_carry_their_gold_result() {
        // reordered, so ids no longer match positions
        let mut corpus = ctx_corpus();
        corpus.dev.reverse();
        let outsider = corpus.dev[0].clone();
        let ctx = EvalContext::new(&corpus);
        for (i, s) in corpus.dev.iter().enumerate() {
            let gold = ctx.task(s, 0).gold_result.expect("a dev sample's gold is cached");
            assert!(std::ptr::eq(gold, ctx.gold_result(i)), "dev[{i}]");
        }
        assert!(ctx.task(&outsider, 0).gold_result.is_none());
        assert!(ctx.task(&corpus.train[0], 0).gold_result.is_none());
    }

    #[test]
    fn domain_train_counts_sum_to_train_dbs() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let total: usize = ctx.domain_train_counts.values().sum();
        assert_eq!(total, corpus.train_db_ids.len());
        assert!(ctx.avg_domain_train_dbs() > 0.0);
    }

    #[test]
    fn score_execution_preserves_failure_kind() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);

        // broken reference → kind preserved, no work recorded
        let bad = sqlkit::parse_query("SELECT nonexistent_col FROM nonexistent_tbl").unwrap();
        let score = ctx.score(0, &bad, None);
        assert_eq!(
            score,
            Score {
                ex: false,
                em: false,
                pred_work: None,
                exec_failure: Some(ExecFailureKind::UnknownTable)
            }
        );

        // gold query → success, no failure kind
        let score = ctx.score(0, &corpus.dev[0].query, None);
        assert!(score.ex && score.em);
        assert_eq!(score.pred_work, Some(ctx.gold_result(0).work));
        assert_eq!(score.exec_failure, None);
    }

    #[test]
    fn evaluation_records_failure_kinds_for_broken_predictions() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let log = ctx.evaluate_with(&m, &EvalOptions::new()).unwrap();
        for r in &log.records {
            for v in &r.variants {
                // invariants: a failure kind appears exactly when execution
                // produced no result, and never alongside EX
                assert_eq!(v.exec_failure.is_some(), v.pred_work.is_none(), "{}", v.pred_sql);
                if v.ex {
                    assert!(v.exec_failure.is_none());
                }
            }
        }
    }

    #[test]
    fn static_verdicts_are_recorded_and_leave_the_rest_byte_identical() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let base = ctx.evaluate_with(&m, &EvalOptions::new().subset(30).workers(1)).unwrap();
        for r in &base.records {
            for v in &r.variants {
                assert!(v.static_verdict.is_none(), "off by default");
            }
        }
        // the check is additive at any worker count
        for workers in [1usize, 4] {
            let opts = EvalOptions::new().subset(30).workers(workers).static_check(true);
            let log = ctx.evaluate_with(&m, &opts).unwrap();
            let mut verdicts = 0usize;
            let mut flagged = 0usize;
            for (rb, rc) in base.records.iter().zip(&log.records) {
                for (vb, vc) in rb.variants.iter().zip(&rc.variants) {
                    let v = vc.static_verdict.as_ref().expect("verdict recorded");
                    verdicts += 1;
                    flagged += (!v.rules.is_empty()) as usize;
                    // an Error-free verdict is exactly `clean`
                    assert_eq!(
                        v.clean,
                        v.rules.iter().all(|r| {
                            sqlcheck::Rule::from_id(r).expect("stable id").severity()
                                != sqlcheck::Severity::Error
                        }),
                        "{v:?}"
                    );
                    // neutrality: strip the verdict and the variant is
                    // byte-identical to the uninstrumented run
                    let mut stripped = vc.clone();
                    stripped.static_verdict = None;
                    assert_eq!(
                        serde_json::to_string(&stripped).unwrap(),
                        serde_json::to_string(vb).unwrap(),
                    );
                }
            }
            assert!(verdicts > 0);
            assert!(flagged > 0, "corrupted predictions must trip at least one rule");
        }
    }

    #[test]
    fn match_kinds_are_recorded_and_leave_the_rest_byte_identical() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let m = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let base = ctx.evaluate_with(&m, &EvalOptions::new().subset(30).workers(1)).unwrap();
        for r in &base.records {
            for v in &r.variants {
                assert!(v.match_kind.is_none(), "off by default");
            }
        }
        // recording is additive at any worker count
        for workers in [1usize, 4] {
            let opts = EvalOptions::new().subset(30).workers(workers).match_kind(true);
            let log = ctx.evaluate_with(&m, &opts).unwrap();
            let mut kinds = [0usize; 3];
            for (rb, rc) in base.records.iter().zip(&log.records) {
                for (vb, vc) in rb.variants.iter().zip(&rc.variants) {
                    let kind = vc.match_kind.expect("kind recorded");
                    kinds[kind as usize] += 1;
                    // the kind refines `em`, never contradicts it
                    assert_eq!(kind == MatchKind::Syntactic, vc.em, "{}", vc.pred_sql);
                    // neutrality: strip the kind and the variant is
                    // byte-identical to the uninstrumented run
                    let mut stripped = vc.clone();
                    stripped.match_kind = None;
                    assert_eq!(
                        serde_json::to_string(&stripped).unwrap(),
                        serde_json::to_string(vb).unwrap(),
                    );
                }
            }
            assert!(kinds.iter().sum::<usize>() > 0);
            assert!(kinds[MatchKind::Syntactic as usize] > 0, "some exact matches expected");
        }
    }

    #[test]
    fn avg_domain_train_divides_by_represented_domains() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let represented = ctx.domain_train_counts.len();
        assert!(represented > 0);
        let expected = corpus.train_db_ids.len() as f64 / represented as f64;
        assert!(
            (ctx.avg_domain_train_dbs() - expected).abs() < 1e-12,
            "avg {} vs expected {expected} over {represented} represented domains",
            ctx.avg_domain_train_dbs()
        );
        // the mean of per-domain counts must lie between min and max count
        let min = *ctx.domain_train_counts.values().min().unwrap();
        let max = *ctx.domain_train_counts.values().max().unwrap();
        assert!(ctx.avg_domain_train_dbs() >= min as f64);
        assert!(ctx.avg_domain_train_dbs() <= max as f64);
    }
}
