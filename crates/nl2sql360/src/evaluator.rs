//! High-level evaluation orchestration (paper §3, "Evaluator").
//!
//! Runs many models over a corpus — each over the samples in parallel — and
//! renders leaderboards. This is the entry point the examples and the benchmark
//! harness drive.

use crate::executor::{default_workers, EvalContext, EvalLog, EvalOptions};
use crate::filter::Filter;
use crate::metrics;
use crate::report::{fmt_pct, TextTable};
use modelzoo::SimulatedModel;

/// Evaluate several models over the context with the machine's default
/// worker budget. Models that do not support the dataset are skipped.
pub fn evaluate_all(ctx: &EvalContext<'_>, models: &[SimulatedModel]) -> Vec<EvalLog> {
    evaluate_all_with_workers(ctx, models, default_workers())
}

/// Evaluate several models over the context with an explicit worker budget:
/// one model after another, each with the whole budget, so nothing nests
/// and nothing oversubscribes `workers` cores. Logs come back in model
/// order, each byte-identical to a sequential evaluation.
pub fn evaluate_all_with_workers(
    ctx: &EvalContext<'_>,
    models: &[SimulatedModel],
    workers: usize,
) -> Vec<EvalLog> {
    let opts = EvalOptions::new().workers(workers);
    models.iter().filter_map(|m| ctx.evaluate_with(m, &opts)).collect()
}

/// A leaderboard row: method name, class, and a metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Method name.
    pub method: String,
    /// Class label.
    pub class: String,
    /// Metric value (None when the subset is empty for this method).
    pub value: Option<f64>,
}

/// Build a leaderboard for one metric over a filtered subset, sorted
/// descending by value.
pub fn leaderboard(
    logs: &[EvalLog],
    filter: &Filter,
    metric: impl Fn(&EvalLog, &Filter) -> Option<f64>,
) -> Vec<LeaderboardRow> {
    let mut rows: Vec<LeaderboardRow> = logs
        .iter()
        .map(|log| LeaderboardRow {
            method: log.method.clone(),
            class: log.class_label.clone(),
            value: metric(log, filter),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.value
            .unwrap_or(f64::NEG_INFINITY)
            .partial_cmp(&a.value.unwrap_or(f64::NEG_INFINITY))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Render an EX/EM leaderboard table over a filter.
pub fn render_accuracy_leaderboard(logs: &[EvalLog], filter: &Filter) -> String {
    let mut table = TextTable::new(&["Method", "Class", "EX", "EM"]);
    for row in leaderboard(logs, filter, metrics::ex) {
        let log = logs.iter().find(|l| l.method == row.method).expect("row from logs");
        table.row(vec![
            row.method.clone(),
            row.class.clone(),
            fmt_pct(row.value),
            fmt_pct(metrics::em(log, filter)),
        ]);
    }
    table.render()
}

/// Mean metric value over logs of one class label (used for the grouped
/// views of Figure 5).
pub fn class_mean(
    logs: &[EvalLog],
    class_label: &str,
    filter: &Filter,
    metric: impl Fn(&EvalLog, &Filter) -> Option<f64>,
) -> Option<f64> {
    let values: Vec<f64> = logs
        .iter()
        .filter(|l| l.class_label == class_label)
        .filter_map(|l| metric(l, filter))
        .collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use modelzoo::method_by_name;

    fn models() -> Vec<SimulatedModel> {
        ["C3SQL", "SFT CodeS-7B", "RESDSQL-3B", "SuperSQL"]
            .iter()
            .map(|n| SimulatedModel::new(method_by_name(n).unwrap()))
            .collect()
    }

    #[test]
    fn evaluate_all_runs_in_parallel_and_matches_sequential() {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(99));
        let ctx = EvalContext::new(&corpus);
        let models = models();
        let json = |log: &EvalLog| serde_json::to_string(log).expect("log serializes");
        let seq: Vec<String> = models
            .iter()
            .map(|m| json(&ctx.evaluate_with(m, &EvalOptions::new().workers(1)).unwrap()))
            .collect();
        assert_eq!(evaluate_all(&ctx, &models).iter().map(json).collect::<Vec<_>>(), seq);
        for workers in [1, 3] {
            let par = evaluate_all_with_workers(&ctx, &models, workers);
            assert_eq!(par.iter().map(json).collect::<Vec<_>>(), seq, "{workers} workers");
        }
    }

    #[test]
    fn leaderboard_sorted_descending() {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(98));
        let ctx = EvalContext::new(&corpus);
        let logs = evaluate_all(&ctx, &models());
        let lb = leaderboard(&logs, &Filter::all(), metrics::ex);
        for w in lb.windows(2) {
            assert!(w[0].value.unwrap_or(0.0) >= w[1].value.unwrap_or(0.0));
        }
    }

    #[test]
    fn rendered_leaderboard_contains_all_methods() {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(97));
        let ctx = EvalContext::new(&corpus);
        let logs = evaluate_all(&ctx, &models());
        let s = render_accuracy_leaderboard(&logs, &Filter::all());
        for m in ["C3SQL", "SFT CodeS-7B", "RESDSQL-3B", "SuperSQL"] {
            assert!(s.contains(m), "missing {m} in:\n{s}");
        }
    }

    #[test]
    fn class_mean_groups() {
        let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(96));
        let ctx = EvalContext::new(&corpus);
        let logs = evaluate_all(&ctx, &models());
        let m = class_mean(&logs, "LLM (P)", &Filter::all(), metrics::ex);
        assert!(m.is_some());
        assert!(class_mean(&logs, "No Such Class", &Filter::all(), metrics::ex).is_none());
    }
}
