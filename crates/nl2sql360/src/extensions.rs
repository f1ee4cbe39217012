//! Working prototypes of the paper's §6 research opportunities.
//!
//! * **Query rewriter** ("Make NL2SQL Methods Trustworthy"): detect that an
//!   incoming question is a paraphrase of a canonical phrasing and rewrite
//!   it before translation — [`evaluate_with_rewriter`] measures the QVT
//!   gain this buys.
//! * **Adaptive training-data generation**: read per-domain accuracy from
//!   evaluation logs, rank the weakest domains, and synthesize extra
//!   in-domain training data for them — [`adaptive_plan`] +
//!   [`datagen::augment_corpus`].
//!
//! (The third opportunity, the NL2SQL debugger, lives in
//! [`crate::diagnose`].)

use crate::executor::{EvalContext, EvalLog, EvalOptions};
use crate::filter::Filter;
use crate::metrics;
use datagen::nl::paraphrase_key;
use modelzoo::Nl2SqlModel;
use serde::{Deserialize, Serialize};

/// Evaluate a model with a *query rewriter* in front of it: every NL
/// variant whose paraphrase key matches the canonical question is rewritten
/// to the canonical question before translation, so the model never sees
/// the paraphrase at all. Compare QVT against [`EvalContext::evaluate_with`]
/// to measure the rewriter's stabilization effect.
pub fn evaluate_with_rewriter(
    ctx: &EvalContext<'_>,
    model: &dyn Nl2SqlModel,
) -> Option<EvalLog> {
    let mut log = ctx.evaluate_with(model, &EvalOptions::new())?;
    // A rewritten variant is a translation of the canonical question, which
    // is a pure function of the task: its record is variant 0's, whole.
    for (record, sample) in log.records.iter_mut().zip(&ctx.corpus.dev) {
        let canonical_key = paraphrase_key(sample.question());
        for (v, text) in sample.variants.iter().enumerate().skip(1) {
            if paraphrase_key(text) == canonical_key {
                record.variants[v] = record.variants[0].clone();
            }
        }
    }
    Some(log)
}

/// One entry of an adaptive data-generation plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainDeficit {
    /// Domain name.
    pub domain: String,
    /// Measured EX of the method in this domain.
    pub ex: f64,
    /// Number of training databases currently available for the domain.
    pub train_dbs: usize,
    /// Suggested number of extra training databases to synthesize.
    pub suggested_extra_dbs: usize,
}

/// Rank the dev-split domains by measured EX (worst first) and propose how
/// much extra in-domain training data to synthesize — the feedback loop of
/// §6's "Adaptive Training Data Generation".
pub fn adaptive_plan(ctx: &EvalContext<'_>, log: &EvalLog, max_extra_dbs: usize) -> Vec<DomainDeficit> {
    let mut domains: Vec<String> = log.records.iter().map(|r| r.domain.clone()).collect();
    domains.sort();
    domains.dedup();

    let overall = metrics::ex(log, &Filter::all()).unwrap_or(0.0);
    let mut plan: Vec<DomainDeficit> = domains
        .into_iter()
        .filter_map(|domain| {
            let f = Filter::all().domain(domain.clone());
            let ex = metrics::ex(log, &f)?;
            let train_dbs = ctx
                .corpus
                .train_db_ids
                .iter()
                .filter(|id| {
                    ctx.corpus.databases[*id].domain.spec().name.eq_ignore_ascii_case(&domain)
                })
                .count();
            // deficit-proportional suggestion: the further below the
            // overall EX, the more data the domain gets
            let deficit = (overall - ex).max(0.0);
            let suggested = ((deficit / 5.0).ceil() as usize).min(max_extra_dbs);
            Some(DomainDeficit { domain, ex, train_dbs, suggested_extra_dbs: suggested })
        })
        .collect();
    plan.sort_by(|a, b| a.ex.partial_cmp(&b.ex).unwrap_or(std::cmp::Ordering::Equal));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{augment_corpus, domain_by_name, generate_corpus, CorpusConfig, CorpusKind};
    use modelzoo::{method_by_name, SimulatedModel};

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(314))
    }

    #[test]
    fn rewriter_improves_qvt_for_unstable_methods() {
        let corpus = corpus();
        let ctx = EvalContext::new(&corpus);
        // prompt-based methods are the least stable under paraphrase
        let model = SimulatedModel::new(method_by_name("C3SQL").unwrap());
        let plain = ctx.evaluate_with(&model, &EvalOptions::new()).unwrap();
        let rewritten = evaluate_with_rewriter(&ctx, &model).unwrap();
        let q_plain = metrics::qvt(&plain, &Filter::all()).unwrap();
        let q_rew = metrics::qvt(&rewritten, &Filter::all()).unwrap();
        assert!(
            q_rew >= q_plain,
            "rewriter must not hurt QVT: {q_rew:.1} vs {q_plain:.1}"
        );
        assert!(q_rew > 99.0, "canonicalizable variants collapse to the canonical outcome: {q_rew:.1}");
    }

    #[test]
    fn rewriter_does_not_change_canonical_ex() {
        let corpus = corpus();
        let ctx = EvalContext::new(&corpus);
        let model = SimulatedModel::new(method_by_name("DAILSQL").unwrap());
        let plain = ctx.evaluate_with(&model, &EvalOptions::new()).unwrap();
        let rewritten = evaluate_with_rewriter(&ctx, &model).unwrap();
        assert_eq!(
            metrics::ex(&plain, &Filter::all()),
            metrics::ex(&rewritten, &Filter::all()),
            "variant 0 is untouched"
        );
    }

    #[test]
    fn a_rewritten_paraphrase_records_the_canonical_translation() {
        // The model only ever sees the canonical question, so a paraphrase
        // the rewriter catches records that translation whole: its SQL and
        // outcome, and also its failure kind, tokens, cost and latency.
        let corpus = corpus();
        let ctx = EvalContext::new(&corpus);
        let json = |v: &crate::VariantRecord| serde_json::to_string(v).unwrap();
        let mut rewritten = 0;
        for method in ["C3SQL", "RESDSQL-3B"] {
            let model = SimulatedModel::new(method_by_name(method).unwrap());
            let log = evaluate_with_rewriter(&ctx, &model).unwrap();
            for (r, s) in log.records.iter().zip(&corpus.dev) {
                let key = paraphrase_key(s.question());
                for (v, text) in s.variants.iter().enumerate().skip(1) {
                    if paraphrase_key(text) == key {
                        let what = format!("{method} dev[{}] variant {v}", r.sample_id);
                        assert_eq!(json(&r.variants[v]), json(r.canonical()), "{what}");
                        rewritten += 1;
                    }
                }
            }
        }
        assert!(rewritten > 0, "the rewriter never fired");
    }

    #[test]
    fn adaptive_plan_ranks_weak_domains_first() {
        let corpus = corpus();
        let ctx = EvalContext::new(&corpus);
        let model = SimulatedModel::new(method_by_name("SFT CodeS-7B").unwrap());
        let log = ctx.evaluate_with(&model, &EvalOptions::new()).unwrap();
        let plan = adaptive_plan(&ctx, &log, 5);
        assert!(!plan.is_empty());
        for w in plan.windows(2) {
            assert!(w[0].ex <= w[1].ex, "plan must be sorted worst-first");
        }
        for d in &plan {
            assert!(d.suggested_extra_dbs <= 5);
        }
    }

    #[test]
    fn closing_the_loop_augmentation_raises_in_domain_ex() {
        // End-to-end §6 loop: evaluate → find weak domain → synthesize
        // in-domain training data → re-evaluate → in-domain EX rises (the
        // domain-adaptation mechanism of Finding 7).
        let corpus = corpus();
        let ctx = EvalContext::new(&corpus);
        let model = SimulatedModel::new(method_by_name("SFT CodeS-7B").unwrap());
        let log = ctx.evaluate_with(&model, &EvalOptions::new()).unwrap();
        let plan = adaptive_plan(&ctx, &log, 6);
        let target = plan.first().expect("at least one domain").clone();
        let domain = domain_by_name(&target.domain).expect("plan names real domains");

        let augmented = augment_corpus(&corpus, domain, 6, 5, 77);
        let ctx2 = EvalContext::new(&augmented);
        let log2 = ctx2.evaluate_with(&model, &EvalOptions::new()).unwrap();
        let f = Filter::all().domain(target.domain.clone());
        let before = metrics::ex(&log, &f).expect("domain present");
        let after = metrics::ex(&log2, &f).expect("domain present");
        assert!(
            after >= before,
            "in-domain data must not hurt {}: {after:.1} vs {before:.1}",
            target.domain
        );
    }
}
