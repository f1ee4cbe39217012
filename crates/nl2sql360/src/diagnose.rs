//! NL2SQL debugger (paper §6, "Interpret NL2SQL Solution").
//!
//! The paper proposes a *NL2SQL Debugger* that "can detect incorrect SQL
//! queries and allows users to step through the SQL generation process,
//! identify errors or mismatches". This module implements the detection
//! half: a clause-level structural diff between a gold and a predicted
//! query, classifying each mismatch (missing JOIN, wrong column, flipped
//! comparison, lost subquery, ...) so an error analysis can aggregate
//! failure modes per method.

use serde::{Deserialize, Serialize};
use sqlkit::ast::*;
use sqlkit::normalize::normalize;
use sqlkit::SqlFeatures;

/// One detected mismatch between gold and predicted SQL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Mismatch {
    /// Different projection (columns/aggregates selected).
    Projection,
    /// DISTINCT presence differs.
    Distinct,
    /// Different table set in FROM.
    Tables,
    /// Different number of JOIN steps (missing/excess join).
    JoinCount,
    /// WHERE predicates differ.
    Where,
    /// GROUP BY keys differ.
    GroupBy,
    /// HAVING predicates differ.
    Having,
    /// ORDER BY keys or directions differ.
    OrderBy,
    /// LIMIT clauses differ.
    Limit,
    /// Set-operation structure differs.
    SetOps,
    /// Subquery usage differs (nesting lost or invented).
    Nesting,
}

impl Mismatch {
    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Mismatch::Projection => "projection",
            Mismatch::Distinct => "DISTINCT",
            Mismatch::Tables => "tables",
            Mismatch::JoinCount => "join count",
            Mismatch::Where => "WHERE",
            Mismatch::GroupBy => "GROUP BY",
            Mismatch::Having => "HAVING",
            Mismatch::OrderBy => "ORDER BY",
            Mismatch::Limit => "LIMIT",
            Mismatch::SetOps => "set operations",
            Mismatch::Nesting => "nesting",
        }
    }
}

/// Diff a gold and a predicted query into a sorted list of clause-level
/// mismatches. An empty result means the queries are structurally
/// equivalent under normalization (they may still differ in literal
/// values — compare with [`sqlkit::exact_match::exact_match_with`] for that).
pub fn diagnose(gold: &Query, pred: &Query) -> Vec<Mismatch> {
    let g = normalize(gold);
    let p = normalize(pred);
    let mut out = Vec::new();

    if g.set_ops.len() != p.set_ops.len()
        || g.set_ops.iter().zip(&p.set_ops).any(|((a, _), (b, _))| a != b)
    {
        out.push(Mismatch::SetOps);
    }
    diagnose_core(&g.body, &p.body, &mut out);

    let gf = SqlFeatures::of(&g);
    let pf = SqlFeatures::of(&p);
    if gf.subquery_count != pf.subquery_count {
        out.push(Mismatch::Nesting);
    }
    if g.order_by.len() != p.order_by.len()
        || g.order_by
            .iter()
            .zip(&p.order_by)
            .any(|(a, b)| a.desc != b.desc || expr_key(&a.expr) != expr_key(&b.expr))
    {
        out.push(Mismatch::OrderBy);
    }
    match (&g.limit, &p.limit) {
        (None, None) => {}
        (Some(a), Some(b)) if a == b => {}
        _ => out.push(Mismatch::Limit),
    }

    out.sort();
    out.dedup();
    out
}

fn diagnose_core(g: &SelectCore, p: &SelectCore, out: &mut Vec<Mismatch>) {
    if g.distinct != p.distinct {
        out.push(Mismatch::Distinct);
    }
    if key_multiset(g.items.iter().map(item_key)) != key_multiset(p.items.iter().map(item_key)) {
        out.push(Mismatch::Projection);
    }
    let tables = |c: &SelectCore| -> Vec<String> {
        let mut t: Vec<String> = c
            .from
            .iter()
            .flat_map(|f| f.tables())
            .map(|t| match t {
                TableRef::Named { name, .. } => name.clone(),
                TableRef::Subquery { .. } => "<subquery>".into(),
            })
            .collect();
        t.sort();
        t
    };
    if tables(g) != tables(p) {
        out.push(Mismatch::Tables);
    }
    let joins = |c: &SelectCore| c.from.as_ref().map(|f| f.joins.len()).unwrap_or(0);
    if joins(g) != joins(p) {
        out.push(Mismatch::JoinCount);
    }
    if pred_key(&g.where_clause) != pred_key(&p.where_clause) {
        out.push(Mismatch::Where);
    }
    if key_multiset(g.group_by.iter().map(expr_key))
        != key_multiset(p.group_by.iter().map(expr_key))
    {
        out.push(Mismatch::GroupBy);
    }
    if pred_key(&g.having) != pred_key(&p.having) {
        out.push(Mismatch::Having);
    }
}

fn expr_key(e: &Expr) -> String {
    sqlkit::to_sql(&Query::simple(SelectCore::new(vec![SelectItem::expr(e.clone())])))
}

fn item_key(i: &SelectItem) -> String {
    match i {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(t) => format!("{t}.*"),
        SelectItem::Expr { expr, .. } => expr_key(expr),
    }
}

fn pred_key(e: &Option<Expr>) -> Vec<String> {
    fn conjuncts(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Binary { op: BinOp::And, left, right } => {
                conjuncts(left, out);
                conjuncts(right, out);
            }
            other => out.push(expr_key(other)),
        }
    }
    let mut keys = Vec::new();
    if let Some(e) = e {
        conjuncts(e, &mut keys);
    }
    keys.sort();
    keys
}

fn key_multiset(keys: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = keys.collect();
    v.sort();
    v
}

/// Aggregate mismatch counts over (gold, pred) pairs — the per-method error
/// profile an error analysis reports.
pub fn error_profile<'a>(
    pairs: impl Iterator<Item = (&'a Query, &'a Query)>,
) -> Vec<(Mismatch, usize)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<Mismatch, usize> = BTreeMap::new();
    for (gold, pred) in pairs {
        for m in diagnose(gold, pred) {
            *counts.entry(m).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Aggregate *execution-failure* kinds over an evaluation log: how often
/// predictions failed to run at all, split by error kind. Complements
/// [`error_profile`], which diffs queries that did parse — together they
/// separate "wrong SQL" from "broken SQL" per method.
pub fn exec_failure_profile(log: &crate::EvalLog) -> Vec<(crate::ExecFailureKind, usize)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<crate::ExecFailureKind, usize> = BTreeMap::new();
    for record in &log.records {
        for variant in &record.variants {
            if let Some(kind) = variant.exec_failure {
                *counts.entry(kind).or_insert(0) += 1;
            }
        }
    }
    counts.into_iter().collect()
}

/// Cross-tabulate static diagnostics against dynamic execution outcomes
/// over a log evaluated with [`crate::EvalOptions::static_check`]: for
/// every rule that fired, how often the same prediction then failed at
/// execution (and with which [`crate::ExecFailureKind`]) versus executed
/// anyway. `None` in the second column means the flagged query ran — the
/// silent-failure band a static analyzer exists to expose (e.g. a bad
/// column in SELECT masked by a WHERE that matched zero rows).
///
/// Returns `(rule_id, exec_failure, count)` triples sorted by rule then
/// failure kind. Empty when the log carries no verdicts.
pub fn static_failure_profile(
    log: &crate::EvalLog,
) -> Vec<(String, Option<crate::ExecFailureKind>, usize)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<(String, Option<crate::ExecFailureKind>), usize> = BTreeMap::new();
    for record in &log.records {
        for variant in &record.variants {
            let Some(verdict) = &variant.static_verdict else { continue };
            for rule in &verdict.rules {
                *counts.entry((rule.clone(), variant.exec_failure)).or_insert(0) += 1;
            }
        }
    }
    counts.into_iter().map(|((rule, kind), n)| (rule, kind, n)).collect()
}

/// EM-vs-EX disagreement counts over one filtered subset of a log
/// (canonical variants). The paper's headline tension, quantified: EX
/// passes while EM fails exactly when the prediction is semantically
/// right but syntactically different — or when the execution match is a
/// coincidence. The `equiv`-explained slice separates the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmExDisagreement {
    /// Samples in the subset.
    pub samples: usize,
    /// Samples whose prediction passed execution accuracy.
    pub ex_pass: usize,
    /// EX-pass samples the exact matcher nevertheless rejected.
    pub ex_pass_em_fail: usize,
    /// Of those, how many [`sqlcheck::equiv`] proves equivalent by
    /// canonical form — EM false negatives with a rewrite-rule proof.
    pub equiv_explained: usize,
}

impl EmExDisagreement {
    /// EX-pass-but-EM-fail rate in percent of EX passes (`None` when no
    /// prediction passed EX).
    pub fn disagreement_rate(&self) -> Option<f64> {
        (self.ex_pass > 0)
            .then(|| self.ex_pass_em_fail as f64 / self.ex_pass as f64 * 100.0)
    }

    /// Share of the disagreement the canonicalizer explains, in percent
    /// (`None` when EM and EX never disagreed).
    pub fn explained_share(&self) -> Option<f64> {
        (self.ex_pass_em_fail > 0)
            .then(|| self.equiv_explained as f64 / self.ex_pass_em_fail as f64 * 100.0)
    }
}

/// Cross-tabulate EM against EX over the filtered subset of a log
/// (canonical variants). Uses the recorded [`crate::MatchKind`] when the
/// run stored one ([`crate::EvalOptions::match_kind`]); for older logs it
/// falls back to re-parsing the stored SQL and canonicalizing catalog-free,
/// so the profile stays total over any log.
pub fn em_ex_disagreement(log: &crate::EvalLog, filter: &crate::Filter) -> EmExDisagreement {
    let mut out = EmExDisagreement::default();
    for record in log.records.iter().filter(|r| filter.matches(r)) {
        out.samples += 1;
        let v = record.canonical();
        if !v.ex {
            continue;
        }
        out.ex_pass += 1;
        if v.em {
            continue;
        }
        out.ex_pass_em_fail += 1;
        let explained = match v.match_kind {
            Some(kind) => kind == crate::MatchKind::Canonical,
            None => matches!(
                (sqlkit::parse_query(&record.gold_sql), sqlkit::parse_query(&v.pred_sql)),
                (Ok(gold), Ok(pred)) if sqlcheck::equiv::canonically_equal(&gold, &pred, None)
            ),
        };
        if explained {
            out.equiv_explained += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_query;

    fn diag(gold: &str, pred: &str) -> Vec<Mismatch> {
        diagnose(&parse_query(gold).unwrap(), &parse_query(pred).unwrap())
    }

    #[test]
    fn identical_queries_have_no_mismatch() {
        assert!(diag("SELECT a FROM t WHERE b > 1", "SELECT a FROM t WHERE b > 1").is_empty());
    }

    #[test]
    fn alias_differences_are_not_mismatches() {
        assert!(diag(
            "SELECT T1.a FROM t AS T1 WHERE T1.b > 1",
            "SELECT t.a FROM t WHERE t.b > 1"
        )
        .is_empty());
    }

    #[test]
    fn wrong_column_is_projection() {
        assert_eq!(diag("SELECT a FROM t", "SELECT b FROM t"), vec![Mismatch::Projection]);
    }

    #[test]
    fn missing_join_detected() {
        let d = diag(
            "SELECT t.a FROM t JOIN u ON t.id = u.tid",
            "SELECT t.a FROM t",
        );
        assert!(d.contains(&Mismatch::JoinCount), "{d:?}");
        assert!(d.contains(&Mismatch::Tables), "{d:?}");
    }

    #[test]
    fn dropped_condition_is_where() {
        assert_eq!(
            diag("SELECT a FROM t WHERE b > 1 AND c = 2", "SELECT a FROM t WHERE b > 1"),
            vec![Mismatch::Where]
        );
    }

    #[test]
    fn conjunct_order_is_not_a_mismatch() {
        assert!(diag(
            "SELECT a FROM t WHERE b > 1 AND c = 2",
            "SELECT a FROM t WHERE c = 2 AND b > 1"
        )
        .is_empty());
    }

    #[test]
    fn flattened_subquery_is_nesting_and_where() {
        let d = diag(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)",
            "SELECT a FROM t WHERE b = 1",
        );
        assert!(d.contains(&Mismatch::Nesting), "{d:?}");
        assert!(d.contains(&Mismatch::Where), "{d:?}");
    }

    #[test]
    fn order_and_limit_mismatches() {
        assert_eq!(
            diag("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"),
            vec![Mismatch::OrderBy]
        );
        assert_eq!(
            diag("SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 5"),
            vec![Mismatch::Limit]
        );
    }

    #[test]
    fn group_and_having_mismatches() {
        let d = diag(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
            "SELECT a, COUNT(*) FROM t GROUP BY a",
        );
        assert_eq!(d, vec![Mismatch::Having]);
    }

    #[test]
    fn set_op_mismatch() {
        let d = diag(
            "SELECT a FROM t UNION SELECT a FROM u",
            "SELECT a FROM t EXCEPT SELECT a FROM u",
        );
        assert!(d.contains(&Mismatch::SetOps), "{d:?}");
    }

    #[test]
    fn error_profile_aggregates() {
        let gold = parse_query("SELECT a FROM t WHERE b > 1").unwrap();
        let p1 = parse_query("SELECT a FROM t").unwrap();
        let p2 = parse_query("SELECT c FROM t WHERE b > 1").unwrap();
        let pairs = vec![(&gold, &p1), (&gold, &p2)];
        let profile = error_profile(pairs.into_iter());
        assert!(profile.contains(&(Mismatch::Where, 1)));
        assert!(profile.contains(&(Mismatch::Projection, 1)));
    }

    #[test]
    fn static_failure_profile_cross_tabulates_rules_with_exec_outcomes() {
        use crate::{EvalContext, EvalOptions};
        use datagen::{generate_corpus, CorpusConfig, CorpusKind};
        use modelzoo::SimulatedModel;
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(31));
        let ctx = EvalContext::new(&c);
        let m = SimulatedModel::new(modelzoo::method_by_name("C3SQL").unwrap());

        // no verdicts recorded → empty profile
        let plain = ctx.evaluate_with(&m, &EvalOptions::new().subset(40)).unwrap();
        assert!(static_failure_profile(&plain).is_empty());

        let log =
            ctx.evaluate_with(&m, &EvalOptions::new().subset(40).static_check(true)).unwrap();
        let profile = static_failure_profile(&log);
        assert!(!profile.is_empty(), "corrupted predictions must fire rules");
        for (rule, _, n) in &profile {
            assert!(sqlcheck::Rule::from_id(rule).is_some(), "unstable rule id {rule}");
            assert!(*n > 0);
        }
        // the profile totals must match a direct walk over the log
        let direct: usize = log
            .records
            .iter()
            .flat_map(|r| &r.variants)
            .filter_map(|v| v.static_verdict.as_ref())
            .map(|s| s.rules.len())
            .sum();
        let total: usize = profile.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, direct);
    }

    #[test]
    fn em_ex_disagreement_counts_and_explains() {
        use crate::executor::{MatchKind, SampleRecord, VariantRecord};
        use crate::{EvalLog, Filter};
        use sqlkit::hardness::{BirdDifficulty, Hardness};

        fn variant(ex: bool, em: bool, kind: Option<MatchKind>, pred: &str) -> VariantRecord {
            VariantRecord {
                ex,
                em,
                pred_sql: pred.to_string(),
                pred_work: Some(1),
                exec_failure: None,
                static_verdict: None,
                match_kind: kind,
                prompt_tokens: 0,
                completion_tokens: 0,
                cost_usd: 0.0,
                latency_s: 0.0,
            }
        }
        fn record(id: usize, gold: &str, v: VariantRecord) -> SampleRecord {
            SampleRecord {
                sample_id: id,
                db_id: "d".into(),
                domain: "College".into(),
                hardness: Hardness::Easy,
                bird_difficulty: BirdDifficulty::Simple,
                features: sqlkit::SqlFeatures::default(),
                gold_sql: gold.to_string(),
                gold_work: 1,
                variants: vec![v],
            }
        }
        let gold = "SELECT a FROM t WHERE 5 < a";
        let log = EvalLog {
            method: "M".into(),
            class_label: "LLM (P)".into(),
            dataset: "Spider".into(),
            records: vec![
                // EX+EM agree → no disagreement
                record(0, gold, variant(true, true, Some(MatchKind::Syntactic), gold)),
                // recorded kind explains the disagreement
                record(
                    1,
                    gold,
                    variant(true, false, Some(MatchKind::Canonical), "SELECT a FROM t WHERE a > 5"),
                ),
                // recorded kind says coincidental EX
                record(2, gold, variant(true, false, Some(MatchKind::Unmatched), "SELECT a FROM x")),
                // no recorded kind → fallback re-parses and proves this one
                record(3, gold, variant(true, false, None, "SELECT a FROM t WHERE a > 5")),
                // EX fail never enters the disagreement set
                record(4, gold, variant(false, false, None, "SELECT a FROM t")),
            ],
        };
        let d = em_ex_disagreement(&log, &Filter::all());
        assert_eq!(d.samples, 5);
        assert_eq!(d.ex_pass, 4);
        assert_eq!(d.ex_pass_em_fail, 3);
        assert_eq!(d.equiv_explained, 2);
        assert_eq!(d.disagreement_rate(), Some(75.0));
        let share = d.explained_share().unwrap();
        assert!((share - 200.0 / 3.0).abs() < 1e-9, "{share}");
        // empty subset → rates are None
        let none = em_ex_disagreement(&log, &Filter::all().hardness(Hardness::Extra));
        assert_eq!(none.disagreement_rate(), None);
        assert_eq!(none.explained_share(), None);
    }

    #[test]
    fn real_corruptions_get_diagnosed() {
        use datagen::{generate_corpus, CorpusConfig, CorpusKind};
        use rand::SeedableRng;
        let c = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(31));
        let mut diagnosed = 0;
        for (i, s) in c.dev.iter().enumerate().take(30) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            let pred = modelzoo::corruption::corrupt_prediction(
                &s.query,
                modelzoo::MethodClass::FinetunedPlm,
                c.db(s),
                None,
                &mut rng,
            );
            if !diagnose(&s.query, &pred).is_empty() {
                diagnosed += 1;
            }
        }
        assert!(diagnosed >= 25, "most corruptions must be diagnosable: {diagnosed}/30");
    }
}
