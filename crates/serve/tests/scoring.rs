//! The service scores a prediction exactly as the evaluator does: for every
//! unambiguous dev question of both corpora and one method of each class,
//! the reply's EX, EM, SQL, work and failure kind equal the evaluation
//! log's record — through the default cache key and the canonical one —
//! and with the static check on, a request is rejected exactly when the
//! evaluator's verdict is not clean, naming the verdict's Error rules.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use nl2sql360::{EvalContext, EvalLog, EvalOptions, VariantRecord};
use serve::{QueryError, QueryRequest, QueryResponse, ServeConfig, Service};
use std::collections::HashMap;

const METHODS: [&str; 3] = ["RESDSQL-3B", "SFT CodeS-7B", "C3SQL"];

/// `(method, sample, variant)` of every request whose `(db_id, question)`
/// names one dev question only.
fn requests(corpus: &Corpus) -> Vec<(usize, usize, usize)> {
    let mut asked: HashMap<(&str, &str), usize> = HashMap::new();
    for s in &corpus.dev {
        for q in &s.variants {
            *asked.entry((&s.db_id, q)).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (i, s) in corpus.dev.iter().enumerate() {
        for (v, q) in s.variants.iter().enumerate() {
            if asked[&(s.db_id.as_str(), q.as_str())] == 1 {
                out.push(((i + v) % METHODS.len(), i, v));
            }
        }
    }
    out
}

fn serve_all(
    corpus: &Corpus,
    ctx: &EvalContext<'_>,
    config: ServeConfig,
    reqs: &[(usize, usize, usize)],
) -> Vec<Result<QueryResponse, QueryError>> {
    Service::run_with_methods(config, ctx, &METHODS, |handle| {
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&(m, i, v)| {
                let s = &corpus.dev[i];
                let req = QueryRequest {
                    method: METHODS[m].to_string(),
                    db_id: s.db_id.clone(),
                    question: s.variants[v].clone(),
                    deadline: None,
                    trace: None,
                };
                handle.submit(req).expect("queue never full")
            })
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect()
    })
}

fn assert_scored_alike(reply: &QueryResponse, rec: &VariantRecord, what: &str) {
    assert_eq!(
        (reply.ex, reply.em, &reply.pred_sql, reply.pred_work, reply.exec_failure),
        (rec.ex, rec.em, &rec.pred_sql, rec.pred_work, rec.exec_failure),
        "{what}"
    );
}

fn check(kind: CorpusKind) {
    let corpus = generate_corpus(kind, &CorpusConfig::tiny(13));
    let ctx = EvalContext::new(&corpus);
    let opts = EvalOptions::new().workers(1).static_check(true);
    let logs: Vec<Option<EvalLog>> = METHODS
        .iter()
        .map(|m| {
            let model = modelzoo::SimulatedModel::new(modelzoo::method_by_name(m).unwrap());
            ctx.evaluate_with(&model, &opts)
        })
        .collect();
    let reqs = requests(&corpus);
    assert!(reqs.len() > 40, "{kind:?}: only {} requests", reqs.len());
    let config = |static_check: bool, canonical: bool| ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        static_check,
        canonical_cache_key: canonical,
        ..ServeConfig::default()
    };
    let mut compared = 0usize;
    for canonical in [false, true] {
        let replies = serve_all(&corpus, &ctx, config(false, canonical), &reqs);
        for (&(m, i, v), reply) in reqs.iter().zip(&replies) {
            let what = format!("{kind:?} {} dev[{i}] v{v} canonical={canonical}", METHODS[m]);
            match (&logs[m], reply) {
                (None, Err(QueryError::TranslationRefused)) => {}
                (Some(log), Ok(reply)) => {
                    assert_scored_alike(reply, &log.records[i].variants[v], &what);
                    compared += 1;
                }
                (log, reply) => panic!("{what}: log {} vs {reply:?}", log.is_some()),
            }
        }
    }
    assert!(compared > 80, "{kind:?}: {compared} replies compared");
    let replies = serve_all(&corpus, &ctx, config(true, false), &reqs);
    let mut rejected = 0usize;
    for (&(m, i, v), reply) in reqs.iter().zip(&replies) {
        let Some(log) = &logs[m] else { continue };
        let rec = &log.records[i].variants[v];
        let verdict = rec.static_verdict.as_ref().expect("verdict recorded");
        let what = format!("{kind:?} {} dev[{i}] variant {v} static", METHODS[m]);
        match reply {
            Ok(reply) => {
                assert!(verdict.clean, "{what}: admitted an unclean prediction");
                assert_scored_alike(reply, rec, &what);
            }
            Err(QueryError::StaticRejected(ids)) => {
                let errors: Vec<&String> = verdict
                    .rules
                    .iter()
                    .filter(|r| {
                        sqlcheck::Rule::from_id(r).expect("stable id").severity()
                            == sqlcheck::Severity::Error
                    })
                    .collect();
                assert!(!verdict.clean, "{what}: rejected a clean prediction");
                assert_eq!(ids.iter().collect::<Vec<_>>(), errors, "{what}");
                rejected += 1;
            }
            Err(e) => panic!("{what}: {e}"),
        }
    }
    assert!(rejected > 0, "{kind:?}: the static check never fired");
}

#[test]
fn spider_replies_score_like_the_evaluator() {
    check(CorpusKind::Spider);
}

#[test]
fn bird_replies_score_like_the_evaluator() {
    check(CorpusKind::Bird);
}
