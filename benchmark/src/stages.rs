//! The request pipeline as a chain of public functions, one per layer.
//!
//! `serve`'s worker runs translate → static check → cache key → execute →
//! compare inside one opaque call. Calling the same public functions in
//! the same order from here gives two things: the expected reply for
//! every request (the correctness reference, computed without `serve`),
//! and a per-stage timing of one request (the replayed child spans of
//! [`crate::trace`]).

use crate::trace::Node;
use datagen::GeneratedDb;
use minidb::{ExecResult, ResultSet};
use modelzoo::{Nl2SqlModel, SimulatedModel};
use nl2sql360::EvalContext;
use serve::{QueryError, QueryReply, QueryRequest};
use sqlkit::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// The light methods: they run on both corpora and translate in
/// 40–120 µs, so the layers after `modelzoo` dominate.
pub const LIGHT_METHODS: [&str; 4] = ["C3SQL", "SFT CodeS-7B", "RESDSQL-3B", "SFT CodeS-1B"];

/// Span names, one per layer boundary the replay crosses.
pub mod names {
    pub const TRANSLATE: &str = "modelzoo.translate";
    pub const ANALYZE: &str = "sqlcheck.analyze";
    pub const CANONICAL_KEY: &str = "sqlcheck.canonical_key";
    pub const NORMALIZE_KEY: &str = "sqlkit.normalize_key";
    pub const PARSE: &str = "sqlkit.parse";
    pub const COMPILE: &str = "minidb.compile";
    pub const EXECUTE: &str = "minidb.execute";
    pub const RESULTS_EQUIVALENT: &str = "minidb.results_equivalent";
    pub const EXACT_MATCH: &str = "sqlkit.exact_match";
    pub const SERVE_QUERY: &str = "serve.query";
    pub const CLUSTER_QUERY: &str = "cluster.query";
    pub const HTTP_EXCHANGE: &str = "http.exchange";
    pub const EVALUATE: &str = "nl2sql360.evaluate";
    pub const DB_RUN: &str = "minidb.run";
}

/// Registry models for `methods`.
///
/// # Panics
/// Panics on a name the registry does not know.
pub fn models(methods: &[&str]) -> Vec<SimulatedModel> {
    methods
        .iter()
        .map(|name| {
            let spec = modelzoo::method_by_name(name)
                .unwrap_or_else(|| panic!("method not in registry: {name}"));
            SimulatedModel::new(spec)
        })
        .collect()
}

/// Time `f` and append it to `out` as a replayed span.
fn timed<T>(name: &'static str, out: &mut Vec<Node>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    out.push(Node::replayed(name, started.elapsed().as_nanos() as u64));
    value
}

/// Execute a parsed query the way `Database::run_query` does, as two
/// timed stages. Also reports which executor ran.
pub fn run_query_staged(
    db: &minidb::Database,
    query: &Query,
    out: &mut Vec<Node>,
) -> (ExecResult<ResultSet>, Executor) {
    match timed(names::COMPILE, out, || minidb::compile(db, query)) {
        Some(plan) => {
            let tier = if plan.is_vectorized() { Executor::Columnar } else { Executor::Rowwise };
            (timed(names::EXECUTE, out, || plan.execute(db)), tier)
        }
        None => {
            (timed(names::EXECUTE, out, || minidb::exec::execute(db, query)), Executor::Interpreter)
        }
    }
}

/// Which of minidb's three executors a query ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Compiled and lowered to the vectorized executor.
    Columnar,
    /// Compiled, executed row at a time.
    Rowwise,
    /// `compile` declined; the AST interpreter ran it.
    Interpreter,
}

/// Parse and execute SQL text the way `Database::run` does, staged.
pub fn run_text_staged(
    db: &minidb::Database,
    sql: &str,
    out: &mut Vec<Node>,
) -> ExecResult<ResultSet> {
    let query = timed(names::PARSE, out, || sqlkit::parse_query(sql))?;
    run_query_staged(db, &query, out).0
}

/// Exact execution counts over a set of queries, plus where the time
/// went. Counts and work units depend only on the inputs, so they must
/// repeat run to run and parent to change.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExecProfile {
    /// Queries executed.
    pub queries: u64,
    /// `compile` returned `None`.
    pub fallback: u64,
    /// Compiled but not vectorized.
    pub rowwise: u64,
    /// Σ `ResultSet.work` over successful executions.
    pub work_units: u64,
    /// Execute time of fallback queries.
    pub fallback_ns: u64,
    /// Execute time of all queries.
    pub execute_ns: u64,
}

impl ExecProfile {
    /// Execute `query` staged into `out` and account for it.
    pub fn run(
        &mut self,
        db: &minidb::Database,
        query: &Query,
        out: &mut Vec<Node>,
    ) -> ExecResult<ResultSet> {
        let (result, tier) = run_query_staged(db, query, out);
        let execute_ns = out.last().expect("the execute stage was just pushed").dur_ns;
        self.queries += 1;
        self.execute_ns += execute_ns;
        match tier {
            Executor::Columnar => {}
            Executor::Rowwise => self.rowwise += 1,
            Executor::Interpreter => {
                self.fallback += 1;
                self.fallback_ns += execute_ns;
            }
        }
        if let Ok(rs) = &result {
            self.work_units += rs.work;
        }
        result
    }

    /// `part / queries`, 0 for none.
    pub fn share(&self, part: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            part as f64 / self.queries as f64
        }
    }
}

/// One NL request: which model, which dev sample, which question variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NlOp {
    /// Index into the pipeline's models.
    pub method: usize,
    /// Index into `corpus.dev`.
    pub sample: usize,
    /// Index into the sample's `variants`.
    pub variant: usize,
}

/// What a correct service must answer for one [`NlOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// A scored prediction.
    Answer {
        /// Execution accuracy.
        ex: bool,
        /// Exact match.
        em: bool,
        /// Predicted SQL text.
        pred_sql: String,
    },
    /// The model declines the dataset.
    Refused,
    /// The static check finds an Error-severity diagnostic.
    Rejected,
}

impl Expected {
    /// Whether a service reply is this answer. The first few mismatches
    /// are reported on stderr, so a failed run says which ops failed.
    pub fn matches(&self, reply: &QueryReply) -> bool {
        let ok = match (self, reply) {
            (Expected::Answer { ex, em, pred_sql }, Ok(r)) => {
                (*ex, *em, pred_sql) == (r.ex, r.em, &r.pred_sql)
            }
            (Expected::Refused, Err(QueryError::TranslationRefused)) => true,
            (Expected::Rejected, Err(QueryError::StaticRejected(_))) => true,
            _ => false,
        };
        if !ok {
            report_mismatch(format_args!("expected {self:?}, got {reply:?}"));
        }
        ok
    }
}

/// Print a failed correctness check, the first few times.
pub fn report_mismatch(what: std::fmt::Arguments<'_>) {
    static REPORTED: AtomicU32 = AtomicU32::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("correctness check failed: {what}");
    }
}

/// Parallel lists: the i-th op, its wire request, its expected reply.
#[derive(Debug, Default, Clone)]
pub struct RequestSet {
    /// What is asked.
    pub ops: Vec<NlOp>,
    /// How it is asked.
    pub requests: Vec<QueryRequest>,
    /// What must come back.
    pub expected: Vec<Expected>,
}

impl RequestSet {
    /// Answers scored EX-correct and EM-correct — exact counts.
    pub fn ex_em_totals(&self, indices: impl Iterator<Item = usize>) -> (u64, u64) {
        indices.fold((0, 0), |(ex_n, em_n), i| match &self.expected[i] {
            Expected::Answer { ex, em, .. } => (ex_n + u64::from(*ex), em_n + u64::from(*em)),
            _ => (ex_n, em_n),
        })
    }
}

/// Which execution-cache key the explained caller computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// No cache in front of execution (`evaluate_with`).
    None,
    /// `to_sql(normalize(q))` — `ServeConfig`'s default.
    Normalized,
    /// `equiv::cache_key_canonical_sql` — `canonical_cache_key(true)`.
    Canonical,
}

/// The request pipeline's stages over one corpus, configured like the
/// caller it explains.
pub struct Pipeline<'a> {
    ctx: &'a EvalContext<'a>,
    methods: Vec<&'static str>,
    models: Vec<SimulatedModel>,
    catalogs: HashMap<&'a str, sqlcheck::Catalog>,
    static_check: bool,
    key: Key,
}

impl<'a> Pipeline<'a> {
    /// Stages for `methods` over `ctx`, with the two switches that change
    /// which stages run.
    pub fn new(
        ctx: &'a EvalContext<'a>,
        methods: &[&'static str],
        static_check: bool,
        key: Key,
    ) -> Self {
        let catalogs = if static_check || key == Key::Canonical {
            ctx.corpus
                .dev_db_ids
                .iter()
                .map(|id| {
                    let db = &ctx.corpus.databases[id].database;
                    (id.as_str(), sqlcheck::Catalog::from_database(db))
                })
                .collect()
        } else {
            HashMap::new()
        };
        Pipeline {
            ctx,
            methods: methods.to_vec(),
            models: models(methods),
            catalogs,
            static_check,
            key,
        }
    }

    /// The evaluation context the stages run over.
    pub fn ctx(&self) -> &'a EvalContext<'a> {
        self.ctx
    }

    /// Method names, in model order.
    pub fn methods(&self) -> &[&'static str] {
        &self.methods
    }

    /// Every request a service over this corpus can be asked without
    /// ambiguity, methods dealt round-robin, each with its wire form and
    /// expected reply. A request is keyed by `(db_id, question)`; the few
    /// question texts that two samples of one database share are left out,
    /// since which sample answers them is the service's choice.
    pub fn request_set(&self) -> RequestSet {
        let dev = &self.ctx.corpus.dev;
        let mut asked: HashMap<(&str, &str), usize> = HashMap::new();
        for s in dev {
            for question in &s.variants {
                *asked.entry((&s.db_id, question)).or_default() += 1;
            }
        }
        let mut set = RequestSet::default();
        for (sample, s) in dev.iter().enumerate() {
            for (variant, question) in s.variants.iter().enumerate() {
                if asked[&(s.db_id.as_str(), question.as_str())] > 1 {
                    continue;
                }
                let op = NlOp { method: set.ops.len() % self.models.len(), sample, variant };
                set.requests.push(self.request(op));
                set.expected.push(self.expected(op));
                set.ops.push(op);
            }
        }
        set
    }

    /// The wire request for `op`.
    pub fn request(&self, op: NlOp) -> QueryRequest {
        let sample = &self.ctx.corpus.dev[op.sample];
        QueryRequest {
            method: self.methods[op.method].to_string(),
            db_id: sample.db_id.clone(),
            question: sample.variants[op.variant].clone(),
            deadline: None,
            trace: None,
        }
    }

    /// The database `op` targets.
    pub fn db(&self, op: NlOp) -> &'a GeneratedDb {
        self.ctx.corpus.db(&self.ctx.corpus.dev[op.sample])
    }

    fn error_rules(&self, db_id: &str, query: &Query) -> usize {
        let catalog = &self.catalogs[db_id];
        sqlcheck::analyze(catalog, query)
            .iter()
            .filter(|d| d.severity == sqlcheck::Severity::Error)
            .count()
    }

    /// Run `op` through every stage its caller runs for it, timing each
    /// into `out`. With `cache_hit` the execution stages are neither timed
    /// nor profiled: a hit skips them in the service too.
    pub fn run(
        &self,
        op: NlOp,
        cache_hit: bool,
        out: &mut Vec<Node>,
        profile: &mut ExecProfile,
    ) -> Expected {
        let sample = &self.ctx.corpus.dev[op.sample];
        let db = &self.ctx.corpus.db(sample).database;
        let task = self.ctx.task(sample, op.variant);
        let Some(pred) = timed(names::TRANSLATE, out, || self.models[op.method].translate(&task))
        else {
            return Expected::Refused;
        };
        if self.static_check
            && timed(names::ANALYZE, out, || self.error_rules(&sample.db_id, &pred.query)) > 0
        {
            return Expected::Rejected;
        }
        match self.key {
            Key::None => {}
            Key::Normalized => {
                std::hint::black_box(timed(names::NORMALIZE_KEY, out, || {
                    sqlkit::to_sql(&sqlkit::normalize::normalize(&pred.query))
                }));
            }
            Key::Canonical => {
                let catalog = self.catalogs.get(sample.db_id.as_str());
                std::hint::black_box(timed(names::CANONICAL_KEY, out, || {
                    sqlcheck::equiv::cache_key_canonical_sql(&pred.query, catalog)
                }));
            }
        }
        let result =
            if cache_hit { db.run_query(&pred.query) } else { profile.run(db, &pred.query, out) };
        let gold = self.ctx.gold_result(op.sample);
        let ex = match &result {
            Ok(rs) => {
                timed(names::RESULTS_EQUIVALENT, out, || minidb::results_equivalent(gold, rs))
            }
            Err(_) => false,
        };
        let em = timed(names::EXACT_MATCH, out, || sqlkit::exact_match(&sample.query, &pred.query));
        Expected::Answer { ex, em, pred_sql: pred.sql }
    }

    /// The expected reply for `op`.
    pub fn expected(&self, op: NlOp) -> Expected {
        self.run(op, false, &mut Vec::new(), &mut ExecProfile::default())
    }

    /// Translate `op` and account its predicted query into `profile`;
    /// refused and statically rejected predictions are counted apart.
    pub fn profile(&self, op: NlOp, profile: &mut ExecProfile, gate: &mut GateCounts) {
        let sample = &self.ctx.corpus.dev[op.sample];
        gate.translated += 1;
        let Some(pred) = self.models[op.method].translate(&self.ctx.task(sample, op.variant))
        else {
            gate.refused += 1;
            return;
        };
        if self.static_check {
            gate.analyzed += 1;
            if self.error_rules(&sample.db_id, &pred.query) > 0 {
                gate.rejected += 1;
                return;
            }
        }
        let _ = profile.run(&self.ctx.corpus.db(sample).database, &pred.query, &mut Vec::new());
    }

    /// The stages `POST /v1/sql` runs for raw SQL against `db_id`: with
    /// the static check on, a parse and an analysis; then `Database::run`.
    pub fn run_raw_sql(
        &self,
        db_id: &str,
        sql: &str,
        out: &mut Vec<Node>,
    ) -> ExecResult<ResultSet> {
        if self.static_check {
            if let Ok(query) = timed(names::PARSE, out, || sqlkit::parse_query(sql)) {
                timed(names::ANALYZE, out, || self.error_rules(db_id, &query));
            }
        }
        run_text_staged(&self.ctx.corpus.databases[db_id].database, sql, out)
    }
}

/// Exact counts at the two gates before execution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GateCounts {
    /// `translate` calls.
    pub translated: u64,
    /// ... that returned `None`.
    pub refused: u64,
    /// Predictions analyzed by `sqlcheck`.
    pub analyzed: u64,
    /// ... that carried an Error diagnostic.
    pub rejected: u64,
}
