//! The evaluation executor: runs models over benchmark corpora and logs
//! every outcome (paper §3, "Executor and Logs").
//!
//! The executor pre-computes gold execution results once per corpus, builds
//! the few-shot retrieval index once, translates every (sample, variant)
//! pair through a model, executes both gold and predicted SQL on `minidb`,
//! and records EX/EM outcomes together with token/cost/latency accounting.
//! The resulting [`EvalLog`] is the single source every metric and report
//! reads from.

use datagen::{regenerate_content, Corpus, CorpusKind, GeneratedDb, Sample, SchemaProfile};
use minidb::{results_equivalent, ExecError, ResultSet};
use modelzoo::modules::FewShotIndex;
use modelzoo::{DatasetKind, Nl2SqlModel, SimulatedModel, TranslationTask};
use serde::{Deserialize, Serialize};
use sqlkit::hardness::{BirdDifficulty, Hardness};
use sqlkit::SqlFeatures;
use std::collections::HashMap;

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
/// Defaults: the full dev split, a pool of [`default_workers`] threads,
/// tracing off. The resulting [`EvalLog`] is byte-identical for any
/// combination of `workers` and `trace` (test-enforced); options affect
/// only wall-clock and observability output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOptions {
    subset: Option<usize>,
    workers: Option<usize>,
    trace: bool,
    static_check: bool,
    match_kind: bool,
}

impl EvalOptions {
    /// Options with all defaults (full split, default pool, no tracing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate only the first `n` dev samples (clamped to the split size).
    pub fn subset(mut self, n: usize) -> Self {
        self.subset = Some(n);
        self
    }

    /// Size of the worker pool; `1` evaluates inline without spawning.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Enable the global obs recorder for the duration of the run (the
    /// previous enablement is restored afterwards). Snapshot with
    /// [`obs::snapshot`] after the call to export spans and counters.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The configured subset bound, if any.
    pub fn subset_len(&self) -> Option<usize> {
        self.subset
    }

    /// The worker count this evaluation will use.
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// Whether tracing will be enabled for the run.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// Record a [`StaticVerdict`] for every predicted query. Purely
    /// additive: every other field of the log is byte-identical with the
    /// check off (test-enforced).
    pub fn static_check(mut self, on: bool) -> Self {
        self.static_check = on;
        self
    }

    /// Whether static verdicts will be recorded.
    pub fn static_check_enabled(&self) -> bool {
        self.static_check
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

    /// Whether match kinds will be recorded.
    pub fn match_kind_enabled(&self) -> bool {
        self.match_kind
    }
}

/// Which optional per-variant extras an evaluation records; derived from
/// [`EvalOptions`] once and threaded through the worker fan-out.
#[derive(Clone, Copy)]
struct Recording {
    static_check: bool,
    match_kind: bool,
}

/// Evaluation context over one corpus: gold executions cached, few-shot
/// index built, domain statistics derived.
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
    /// Per-database schema catalogs for the optional static check —
    /// derived once here so verdicts cost one lookup per prediction.
    catalogs: HashMap<String, sqlcheck::Catalog>,
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
        let profile = match corpus.kind {
            CorpusKind::Spider => SchemaProfile::spider(),
            CorpusKind::Bird => SchemaProfile::bird(),
        };
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
        let catalogs = corpus
            .databases
            .iter()
            .map(|(id, db)| (id.clone(), sqlcheck::Catalog::from_database(&db.database)))
            .collect();
        Self {
            corpus,
            dataset,
            few_shot: FewShotIndex::new(&corpus.train),
            gold_results,
            domain_train_counts,
            avg_domain_train,
            suite,
            suite_gold,
            catalogs,
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

    /// Build the translation task for a (sample, variant) pair.
    pub fn task(&'a self, sample: &'a Sample, variant: usize) -> TranslationTask<'a> {
        TranslationTask {
            sample,
            variant,
            db: self.corpus.db(sample),
            dataset: self.dataset,
            domain_train_dbs: self.domain_train_dbs(sample),
            avg_domain_train_dbs: self.avg_domain_train,
            few_shot: Some(&self.few_shot),
            gold_result: None,
        }
    }

    /// Cached gold result for dev sample `i`.
    pub fn gold_result(&self, i: usize) -> &ResultSet {
        &self.gold_results[i]
    }

    /// Evaluate one model according to `opts` — the single evaluation entry
    /// point. [`EvalOptions::default`] means: full dev split, worker pool
    /// sized by [`default_workers`], no tracing. Returns `None` when the
    /// model does not run on this dataset.
    pub fn evaluate_with(&self, model: &dyn Nl2SqlModel, opts: &EvalOptions) -> Option<EvalLog> {
        // The guard must outlive the run span so the span is recorded.
        let _trace = opts.trace.then(obs::enable);
        let _span = obs::span("eval.run");
        let n = opts.subset.unwrap_or(usize::MAX).min(self.corpus.dev.len());
        let workers = opts.workers.unwrap_or_else(default_workers);
        let recording =
            Recording { static_check: opts.static_check, match_kind: opts.match_kind };
        self.run_eval(model, n, workers, recording)
    }

    /// Evaluation core shared by every [`evaluate_with`] path. Samples are
    /// fanned out to `workers` scoped threads on a shared claim counter and
    /// merged back in sample order, so the resulting [`EvalLog`] is
    /// byte-identical to a sequential evaluation at any worker count
    /// (test-enforced, tracing on or off). `workers <= 1` runs inline
    /// without spawning.
    ///
    /// [`evaluate_with`]: EvalContext::evaluate_with
    fn run_eval(
        &self,
        model: &dyn Nl2SqlModel,
        n: usize,
        workers: usize,
        recording: Recording,
    ) -> Option<EvalLog> {
        let records = if workers <= 1 || n < 2 {
            let mut records = Vec::with_capacity(n);
            for i in 0..n {
                obs::count("eval.claim", 1);
                records.push(self.eval_sample(model, i, recording)?);
            }
            obs::observe("eval.samples_per_worker", n as u64);
            records
        } else {
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
            use std::sync::Mutex;
            let workers = workers.min(n);
            // dynamic claim counter: workers pull the next unclaimed sample,
            // so an expensive sample never stalls a fixed chunk behind it
            let next = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let slots: Vec<Mutex<Option<SampleRecord>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            crossbeam::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|_| {
                        let _span = obs::span("eval.worker");
                        let mut claimed = 0u64;
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            claimed += 1;
                            obs::count("eval.claim", 1);
                            match self.eval_sample(model, i, recording) {
                                Some(rec) => *slots[i].lock().expect("slot poisoned") = Some(rec),
                                None => {
                                    // model refuses this dataset: the whole
                                    // evaluation is None, matching sequential
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        // pool-utilization profile: a flat histogram means
                        // even load; a skewed one means stragglers
                        obs::observe("eval.samples_per_worker", claimed);
                    });
                }
            })
            .expect("evaluation worker panicked");
            if abort.load(Ordering::Relaxed) {
                return None;
            }
            // ordered merge: slot i holds sample i, independent of which
            // worker produced it or when
            let _merge = obs::span("eval.merge");
            obs::count("eval.merge", 1);
            slots
                .into_iter()
                .map(|m| m.into_inner().expect("slot poisoned"))
                .collect::<Option<Vec<_>>>()?
        };
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
        recording: Recording,
    ) -> Option<SampleRecord> {
        let _span = obs::span("eval.sample");
        let sample = &self.corpus.dev[i];
        let gold_rs = &self.gold_results[i];
        let mut variants = Vec::with_capacity(sample.variants.len());
        for v in 0..sample.variants.len() {
            let task = TranslationTask { gold_result: Some(gold_rs), ..self.task(sample, v) };
            let pred = model.translate(&task)?;
            let (mut ex, pred_work, exec_failure) =
                score_execution(self.corpus, sample, &pred.query, gold_rs);
            if ex {
                ex = self.suite_confirms(i, sample, &pred.query);
            }
            let em = sqlkit::exact_match(&sample.query, &pred.query);
            let static_verdict =
                recording.static_check.then(|| self.static_verdict(&sample.db_id, &pred.query));
            let match_kind = recording
                .match_kind
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
            gold_work: gold_rs.work,
            variants,
        })
    }

    /// Analyze a predicted query against its database's schema catalog.
    pub fn static_verdict(&self, db_id: &str, pred: &sqlkit::Query) -> StaticVerdict {
        let Some(catalog) = self.catalogs.get(db_id) else {
            return StaticVerdict { clean: true, rules: Vec::new() };
        };
        let diags = sqlcheck::analyze(catalog, pred);
        let clean = sqlcheck::is_clean(&diags);
        let mut fired: Vec<sqlcheck::Rule> = diags.into_iter().map(|d| d.rule).collect();
        fired.sort_by_key(|&r| r as usize);
        fired.dedup();
        StaticVerdict { clean, rules: fired.into_iter().map(|r| r.id().to_string()).collect() }
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
        } else if sqlcheck::equiv::canonically_equal(gold, pred, self.catalogs.get(db_id)) {
            MatchKind::Canonical
        } else {
            MatchKind::Unmatched
        }
    }

    /// Does the prediction match gold on every test-suite instance?
    /// (Vacuously true with an empty suite, or on instances where the gold
    /// itself cannot run.)
    fn suite_confirms(&self, sample_idx: usize, sample: &Sample, pred: &sqlkit::Query) -> bool {
        for (instance, golds) in self.suite.iter().zip(&self.suite_gold) {
            let Some(gold_rs) = &golds[sample_idx] else { continue };
            let ok = match instance[&sample.db_id].database.run_query(pred) {
                Ok(rs) => results_equivalent(gold_rs, &rs),
                Err(_) => false,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Fast EX-only fitness for the AAS search: canonical variants of the
    /// first `n` dev samples via the model's query-only path.
    pub fn fitness_ex(&self, model: &SimulatedModel, n: usize) -> Option<f64> {
        let n = n.min(self.corpus.dev.len());
        let mut correct = 0usize;
        for (i, sample) in self.corpus.dev.iter().take(n).enumerate() {
            let gold_rs = &self.gold_results[i];
            let task = TranslationTask { gold_result: Some(gold_rs), ..self.task(sample, 0) };
            let pred = model.predict_query_only(&task)?;
            let (ex, _, _) = score_execution(self.corpus, sample, &pred, gold_rs);
            if ex {
                correct += 1;
            }
        }
        Some(correct as f64 / n as f64 * 100.0)
    }
}

/// Execute a predicted query and compare against the gold result. The
/// third element preserves the execution-error kind on failure instead of
/// collapsing every error into a bare `false`.
fn score_execution(
    corpus: &Corpus,
    sample: &Sample,
    pred: &sqlkit::Query,
    gold_rs: &ResultSet,
) -> (bool, Option<u64>, Option<ExecFailureKind>) {
    match corpus.db(sample).database.run_query(pred) {
        Ok(rs) => (results_equivalent(gold_rs, &rs), Some(rs.work), None),
        Err(e) => (false, None, Some(ExecFailureKind::of(&e))),
    }
}

/// Default evaluation worker count: the machine's available parallelism
/// (1 when it cannot be determined). Shared by the CLI `--parallel`
/// default, the serve worker pool, and `EvalContext::evaluate`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
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
        // The serve worker pool shares one context by reference; losing
        // Send + Sync on EvalContext would silently break that crate's
        // scoped-thread design, so pin it here at the source.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext<'static>>();
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
        let sample = &corpus.dev[0];
        let gold_rs = corpus.db(sample).database.run_query(&sample.query).unwrap();

        // broken reference → kind preserved, no work recorded
        let bad = sqlkit::parse_query("SELECT nonexistent_col FROM nonexistent_tbl").unwrap();
        let (ex, work, kind) = score_execution(&corpus, sample, &bad, &gold_rs);
        assert!(!ex);
        assert_eq!(work, None);
        assert_eq!(kind, Some(ExecFailureKind::UnknownTable));

        // gold query → success, no failure kind
        let (ex, work, kind) = score_execution(&corpus, sample, &sample.query, &gold_rs);
        assert!(ex);
        assert!(work.is_some());
        assert_eq!(kind, None);
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
