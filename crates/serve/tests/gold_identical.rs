//! A request whose prediction is the gold query takes the verdict, cache
//! key and cached result the service computed for gold at boot. Its reply
//! must equal what the full pipeline gives the prediction — its own static
//! verdict, its own cache key, its own execution and a full comparison —
//! under both cache-key kinds with the static check on, on both corpora.
//! And the verdict is gold's as computed, never assumed clean: a planted
//! gold that fires an Error rule rejects its gold-identical predictions.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use minidb::results_equivalent;
use modelzoo::{method_by_name, Nl2SqlModel, Prediction, SimulatedModel};
use nl2sql360::EvalContext;
use serve::{QueryError, QueryRequest, ServeConfig, Service};
use std::collections::{HashMap, HashSet};

const METHODS: [&str; 3] = ["RESDSQL-3B", "SFT CodeS-7B", "C3SQL"];

fn check(kind: CorpusKind) {
    let corpus = generate_corpus(kind, &CorpusConfig::tiny(13));
    let ctx = EvalContext::new(&corpus);
    let mut asked: HashMap<(&str, &str), usize> = HashMap::new();
    for s in &corpus.dev {
        for q in &s.variants {
            *asked.entry((&s.db_id, q)).or_default() += 1;
        }
    }
    // every unambiguous (method, sample, variant) predicting the gold query
    let mut reqs: Vec<(usize, usize, usize, Prediction)> = Vec::new();
    for (m, name) in METHODS.iter().enumerate() {
        let model = SimulatedModel::new(method_by_name(name).expect("registered"));
        for (i, s) in corpus.dev.iter().enumerate() {
            for (v, q) in s.variants.iter().enumerate() {
                let unambiguous = asked[&(s.db_id.as_str(), q.as_str())] == 1;
                match model.translate(&ctx.task(s, v)) {
                    Some(pred) if unambiguous && pred.query == s.query => {
                        reqs.push((m, i, v, pred))
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(reqs.len() > 40, "{kind:?}: only {} gold-identical requests", reqs.len());

    for canonical in [false, true] {
        let config = ServeConfig::builder()
            .static_check(true)
            .canonical_cache_key(canonical)
            .cache_capacity_per_shard(4096)
            .build()
            .expect("valid config");
        // one after another, so whether a request hits depends only on
        // the requests before it
        let replies: Vec<_> = Service::run_with_methods(config, &ctx, &METHODS, |handle| {
            reqs.iter()
                .map(|(m, i, v, _)| {
                    let s = &corpus.dev[*i];
                    handle.query(QueryRequest {
                        method: METHODS[*m].to_string(),
                        db_id: s.db_id.clone(),
                        question: s.variants[*v].clone(),
                        deadline: None,
                        trace: None,
                    })
                })
                .collect()
        });

        let mut cached = HashSet::new();
        let mut hits = 0usize;
        for ((_, i, _, pred), reply) in reqs.iter().zip(replies) {
            let s = &corpus.dev[*i];
            let what = format!("{kind:?} canonical={canonical} dev[{i}] `{}`", pred.sql);
            let catalog = ctx.catalog(&s.db_id).expect("a dev database has a catalog");
            let fired = sqlcheck::rejecting_rules(catalog, &pred.query);
            if !fired.is_empty() {
                let ids = fired.iter().map(|r| r.id().to_string()).collect();
                assert_eq!(reply, Err(QueryError::StaticRejected(ids)), "{what}");
                continue;
            }
            let key = if canonical {
                sqlcheck::equiv::cache_key_canonical_sql(&pred.query, Some(catalog))
            } else {
                sqlkit::to_sql(&sqlkit::normalize::normalize(&pred.query))
            };
            let hit = !cached.insert((s.db_id.clone(), key));
            hits += usize::from(hit);
            let rs = corpus.db(s).database.run_query(&pred.query).expect("gold runs");
            let ex = results_equivalent(ctx.gold_result(*i), &rs);
            let em = sqlkit::exact_match(&s.query, &pred.query);
            let r = reply.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                (r.ex, r.em, &r.pred_sql, r.pred_work, r.exec_failure, r.cache_hit),
                (ex, em, &pred.sql, Some(rs.work), None, hit),
                "{what}"
            );
        }
        assert!(0 < hits && hits < reqs.len(), "{kind:?}: {hits} hits pin both cache arms");
    }
}

#[test]
fn gold_identical_replies_equal_the_full_path_on_spider() {
    check(CorpusKind::Spider);
}

#[test]
fn gold_identical_replies_equal_the_full_path_on_bird() {
    check(CorpusKind::Bird);
}

#[test]
fn a_gold_query_the_static_check_rejects_is_rejected_as_a_prediction() {
    // No generated gold fires an Error rule, so plant one that does and
    // still executes: the conjunction is false before the two-column
    // subquery ever runs.
    let mut corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(13));
    let (t, c) = {
        let db = &corpus.db(&corpus.dev[0]).database;
        let t = db.tables().next().expect("a database has a table");
        (t.schema.name.clone(), t.schema.columns[0].name.clone())
    };
    let gold = &mut corpus.dev[0];
    gold.sql = format!("SELECT {c} FROM {t} WHERE 1 = 0 AND {c} IN (SELECT {c}, {c} FROM {t})");
    gold.query = sqlkit::parse_query(&gold.sql).expect("parses");
    let ctx = EvalContext::new(&corpus);
    let s = &corpus.dev[0];
    let catalog = ctx.catalog(&s.db_id).expect("a dev database has a catalog");
    assert_eq!(sqlcheck::rejecting_rules(catalog, &s.query), [sqlcheck::Rule::SubqueryArity]);

    // every (method, variant) of the planted sample that predicts gold
    let asked: Vec<(usize, usize)> = (0..METHODS.len())
        .flat_map(|m| (0..s.variants.len()).map(move |v| (m, v)))
        .filter(|&(m, v)| {
            let model = SimulatedModel::new(method_by_name(METHODS[m]).expect("registered"));
            let same =
                |o: &&datagen::Sample| o.db_id == s.db_id && o.variants.contains(&s.variants[v]);
            let unambiguous = corpus.dev.iter().filter(same).count() == 1;
            unambiguous && model.translate(&ctx.task(s, v)).is_some_and(|p| p.query == s.query)
        })
        .collect();
    assert!(!asked.is_empty(), "no method predicts the planted gold");
    for canonical in [false, true] {
        let config = ServeConfig::builder()
            .static_check(true)
            .canonical_cache_key(canonical)
            .build()
            .expect("valid config");
        Service::run_with_methods(config, &ctx, &METHODS, |handle| {
            for &(m, v) in &asked {
                let reply = handle.query(QueryRequest {
                    method: METHODS[m].to_string(),
                    db_id: s.db_id.clone(),
                    question: s.variants[v].clone(),
                    deadline: None,
                    trace: None,
                });
                let rejected = QueryError::StaticRejected(vec!["subquery-arity".to_string()]);
                assert_eq!(reply, Err(rejected), "canonical={canonical} {} v{v}", METHODS[m]);
            }
        });
    }
}
