//! The `"few_shot"` section: `FewShotIndex::select` against a brute-force
//! scan of the same 7000-question Spider training pool.
//!
//! `modelzoo` has one retrieval path, so the scan it replaced lives here
//! as the fixture: every selection is checked against it, and the
//! `--validate` gate (index >= 10x the scan) is a ratio of two
//! single-threaded loops, so it arms on any core count.

use crate::{time_ns, Gate};
use datagen::{generate_corpus, CorpusConfig, CorpusKind, Sample};
use modelzoo::modules::{tokenize_question, FewShotIndex};
use std::collections::HashSet;

/// Dev questions timed per pass.
const QUERIES: usize = 256;
/// Exemplars per prompt, as `modelzoo::prompt` asks for.
const K: usize = 5;
/// The gate: how many times faster than the scan the index must be.
const MIN_SPEEDUP: f64 = 10.0;

pub struct FewShotPoint {
    pool: usize,
    queries: usize,
    index_ns_per_query: f64,
    brute_force_ns_per_query: f64,
    /// brute force / index
    speedup: f64,
    /// Posting entries walked per query, as the program counts them
    /// (`modelzoo.few_shot.postings`); the scan touches `pool` token sets.
    postings_per_query: f64,
    index_bytes: usize,
}

/// The pool pre-tokenized into string sets, every set intersected per
/// query, all scores sorted: `sim desc, index asc`.
fn brute_force<'a>(
    pool: &'a [Sample],
    sets: &[HashSet<String>],
    question: &str,
    k: usize,
) -> Vec<&'a Sample> {
    let q: HashSet<String> = tokenize_question(question).into_iter().collect();
    let mut scored: Vec<(f64, usize)> = sets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let inter = q.intersection(t).count() as f64;
            let union = (q.len() + t.len()) as f64 - inter;
            (if union > 0.0 { inter / union } else { 0.0 }, i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, i)| &pool[i]).collect()
}

pub fn bench() -> FewShotPoint {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::spider(5));
    let pool = &corpus.train;
    let questions: Vec<&str> =
        corpus.dev.iter().flat_map(|s| &s.variants).map(String::as_str).take(QUERIES).collect();
    let index = FewShotIndex::new(pool);
    let sets: Vec<HashSet<String>> =
        pool.iter().map(|s| tokenize_question(s.question()).into_iter().collect()).collect();

    // the work count comes from the program's own counters, and the same
    // pass checks every selection against the scan
    let postings_per_query = {
        let _recording = obs::enable();
        obs::reset();
        for q in &questions {
            let (got, want) = (index.select(q, K), brute_force(pool, &sets, q, K));
            assert!(
                got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| std::ptr::eq(*a, *b)),
                "index and brute force disagree on {q:?}"
            );
        }
        let seen = obs::snapshot();
        obs::reset();
        assert_eq!(seen.counter("modelzoo.few_shot.select"), questions.len() as u64);
        seen.histograms["modelzoo.few_shot.postings"].sum as f64 / questions.len() as f64
    };

    let pass = |select: &dyn Fn(&str) -> usize| {
        time_ns(|| questions.iter().map(|q| select(q)).sum()) / questions.len() as f64
    };
    let index_ns_per_query = pass(&|q| index.select(q, K).len());
    let brute_force_ns_per_query = pass(&|q| brute_force(pool, &sets, q, K).len());
    FewShotPoint {
        pool: pool.len(),
        queries: questions.len(),
        index_ns_per_query,
        brute_force_ns_per_query,
        speedup: brute_force_ns_per_query / index_ns_per_query,
        postings_per_query,
        index_bytes: index.heap_bytes(),
    }
}

impl FewShotPoint {
    pub fn print(&self) {
        eprintln!(
            "  pool {} / {} queries: index {:>8.0}ns  brute force {:>9.0}ns  x{:.1}",
            self.pool,
            self.queries,
            self.index_ns_per_query,
            self.brute_force_ns_per_query,
            self.speedup
        );
        eprintln!(
            "  {:.0} postings walked per query (the scan touches {} token sets); index holds {} KiB",
            self.postings_per_query,
            self.pool,
            self.index_bytes / 1024
        );
    }

    /// The body of the `"few_shot"` JSON object.
    pub fn json(&self) -> String {
        format!(
            "    \"pool\": {}, \"queries\": {}, \"k\": {K}, \"index_ns_per_query\": {:.0}, \
             \"brute_force_ns_per_query\": {:.0},\n    \"speedup\": {:.1}, \
             \"postings_per_query\": {:.0}, \"index_bytes\": {}",
            self.pool,
            self.queries,
            self.index_ns_per_query,
            self.brute_force_ns_per_query,
            self.speedup,
            self.postings_per_query,
            self.index_bytes
        )
    }

    /// The `--validate` gate: index >= 10x the scan.
    pub fn gate(&self) -> Gate {
        Gate::floor("few-shot index speedup", self.speedup, MIN_SPEEDUP)
    }
}
