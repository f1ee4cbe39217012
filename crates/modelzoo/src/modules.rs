//! Working implementations of the design-space modules (Figure 13).
//!
//! These are not stubs: schema linking really prunes the schema by matching
//! question tokens against table/column names; DB-content matching really
//! scans cell values (the BRIDGE v2 string-matching strategy, used verbatim
//! in the SuperSQL prompt of Figure 15); few-shot selection really ranks
//! training examples by question similarity (the DAIL-SQL strategy). The
//! first two read the database through its [`DbPrompt`] profile (name
//! parts and distinct text values, prepared once per database). Their
//! outputs feed the prompt builders, so module choices change real token
//! counts; their accuracy contribution enters composed pipelines through
//! [`module_ex_bonus`].

use crate::prompt::{DbPrompt, NamePart};
use crate::taxonomy::{Decoding, FewShot, Intermediate, ModuleSet, MultiStep, PostProcessing};
use datagen::Sample;
use std::collections::HashMap;

/// Lower-cased word tokens of a question.
pub fn tokenize_question(q: &str) -> Vec<String> {
    q.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

/// Schema linking (RESDSQL-style ranking): keep tables whose name or column
/// names overlap the question tokens; always keep at least one table, and
/// keep FK-parents of kept tables so joins stay expressible. Returns the
/// kept tables' names, in name order.
pub fn schema_link<'p>(prompt: &'p DbPrompt, question: &str) -> Vec<&'p str> {
    linked_tables(prompt, &distinct_tokens(question))
        .into_iter()
        .map(|t| prompt.tables[t].name.as_str())
        .collect()
}

/// [`schema_link`] over the question's [`distinct_tokens`], as indices into
/// `prompt.tables`.
pub(crate) fn linked_tables(prompt: &DbPrompt, tokens: &[String]) -> Vec<usize> {
    let has = |t: &str| tokens.binary_search_by(|token| token.as_str().cmp(t)).is_ok();
    let matches = |p: &NamePart| {
        has(&p.part)
            || has(&p.plural)
            || p.part.len() > 3 && tokens.iter().any(|t| t.starts_with(p.part.as_str()))
    };
    let mut kept: Vec<bool> =
        prompt.tables.iter().map(|t| t.name_parts.iter().any(matches)).collect();
    if !kept.contains(&true) {
        if let Some(first) = kept.first_mut() {
            *first = true;
        }
    }
    // close over FK parents
    let mut open: Vec<usize> = (0..kept.len()).filter(|&t| kept[t]).collect();
    while let Some(t) = open.pop() {
        for &parent in &prompt.tables[t].fk_parents {
            if !kept[parent] {
                kept[parent] = true;
                open.push(parent);
            }
        }
    }
    prompt.by_name.iter().copied().filter(|&t| kept[t]).collect()
}

/// A matched (table, column, value) triple from DB-content matching.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentMatch {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// The matched cell value.
    pub value: String,
}

/// A DB-content match as indices into a [`DbPrompt`]: candidate `value`
/// of `tables[table].text_columns[column]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContentHit {
    pub(crate) table: usize,
    pub(crate) column: usize,
    pub(crate) value: usize,
}

/// DB-content matching (BRIDGE v2 style): find cell values whose text occurs
/// in the question; the matches annotate columns in the prompt. Candidates
/// are each text column's distinct values of at least 3 bytes; the first
/// `limit` matches in table, column and first-occurrence order are kept.
pub fn match_db_content(prompt: &DbPrompt, question: &str, limit: usize) -> Vec<ContentMatch> {
    content_hits(prompt, &question.to_lowercase(), limit)
        .into_iter()
        .map(|hit| {
            let column = prompt.column(&hit);
            ContentMatch {
                table: prompt.tables[hit.table].name.clone(),
                column: column.name.clone(),
                value: column.text(hit.value).to_string(),
            }
        })
        .collect()
}

/// [`match_db_content`] for an already lowered question.
pub(crate) fn content_hits(prompt: &DbPrompt, q_lower: &str, limit: usize) -> Vec<ContentHit> {
    let mut out = Vec::new();
    if limit == 0 {
        return out;
    }
    for (table, t) in prompt.tables.iter().enumerate() {
        for (column, c) in t.text_columns.iter().enumerate() {
            for (value, lowered) in c.lowered().enumerate() {
                if q_lower.contains(lowered) {
                    out.push(ContentHit { table, column, value });
                    if out.len() == limit {
                        return out;
                    }
                }
            }
        }
    }
    out
}

/// Few-shot retrieval index over a training pool (DAIL-SQL style: rank
/// training questions by Jaccard similarity of their token sets).
///
/// An interned-token inverted index: `new` tokenizes every training
/// question once, interns the tokens to dense ids and stores, per token,
/// the ascending list of samples that contain it. `select` then touches
/// only the postings of the question's own tokens instead of intersecting
/// string sets with every sample in the pool.
pub struct FewShotIndex<'a> {
    samples: &'a [Sample],
    /// Token text → dense token id.
    vocab: HashMap<String, u32>,
    /// The samples containing token `t`, ascending, are
    /// `postings[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    /// Distinct tokens per sample (the `|t|` of the Jaccard union).
    sizes: Vec<u16>,
}

impl<'a> FewShotIndex<'a> {
    /// Build the index (tokenizes every training question once).
    ///
    /// # Panics
    /// Panics if the pool holds more than `u32::MAX` samples or distinct
    /// tokens, or one question more than `u16::MAX` distinct tokens — the
    /// posting and counter widths; no generated or published corpus comes
    /// near any of them.
    pub fn new(samples: &'a [Sample]) -> Self {
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut sizes = Vec::with_capacity(samples.len());
        // (token id, sample) pairs in ascending sample order
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            let i = u32::try_from(i).expect("few-shot pool exceeds u32::MAX samples");
            let tokens = distinct_tokens(s.question());
            sizes.push(
                u16::try_from(tokens.len())
                    .expect("training question exceeds u16::MAX distinct tokens"),
            );
            for token in tokens {
                let next = u32::try_from(vocab.len())
                    .expect("few-shot vocabulary exceeds u32::MAX tokens");
                pairs.push((*vocab.entry(token).or_insert(next), i));
            }
        }
        // counting sort by token id; stable, so each posting list stays
        // in ascending sample order
        let mut offsets = vec![0usize; vocab.len() + 1];
        for &(t, _) in &pairs {
            offsets[t as usize + 1] += 1;
        }
        for t in 0..vocab.len() {
            offsets[t + 1] += offsets[t];
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; pairs.len()];
        for &(t, i) in &pairs {
            postings[cursor[t as usize]] = i;
            cursor[t as usize] += 1;
        }
        Self { samples, vocab, offsets, postings, sizes }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Heap bytes the index owns (the borrowed samples not counted).
    pub fn heap_bytes(&self) -> usize {
        let vocab = self.vocab.capacity() * std::mem::size_of::<(String, u32)>()
            + self.vocab.keys().map(String::capacity).sum::<usize>();
        vocab
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.postings.capacity() * std::mem::size_of::<u32>()
            + self.sizes.capacity() * std::mem::size_of::<u16>()
    }

    /// The `k` most similar training samples to `question`, most similar
    /// first; equally similar samples keep their pool order.
    pub fn select(&self, question: &str, k: usize) -> Vec<&'a Sample> {
        self.select_tokens(&distinct_tokens(question), k)
    }

    /// [`select`](Self::select) for a question's [`distinct_tokens`].
    pub(crate) fn select_tokens(&self, tokens: &[String], k: usize) -> Vec<&'a Sample> {
        // shared[i] = |q ∩ t_i|, at most sizes[i], so u16 cannot overflow
        let mut shared = vec![0u16; self.samples.len()];
        let mut visited = 0u64;
        for &t in tokens.iter().filter_map(|t| self.vocab.get(t)) {
            let list = &self.postings[self.offsets[t as usize]..self.offsets[t as usize + 1]];
            visited += list.len() as u64;
            for &i in list {
                shared[i as usize] += 1;
            }
        }
        if obs::enabled() {
            obs::count("modelzoo.few_shot.select", 1);
            obs::observe("modelzoo.few_shot.postings", visited);
        }
        // One ascending pass keeping the best k as (sim desc, index asc):
        // a sample displaces a kept one only when strictly more similar,
        // so ties keep the lower index.
        let mut top: Vec<(f64, usize)> = Vec::with_capacity(k.min(self.samples.len()) + 1);
        for (i, (&c, &size)) in shared.iter().zip(&self.sizes).enumerate() {
            let inter = c as f64;
            let union = (tokens.len() + size as usize) as f64 - inter;
            let sim = if union > 0.0 { inter / union } else { 0.0 };
            if top.len() == k && top.last().is_none_or(|worst| sim <= worst.0) {
                continue;
            }
            let at = top.partition_point(|kept| kept.0 >= sim);
            top.insert(at, (sim, i));
            top.truncate(k);
        }
        top.into_iter().map(|(_, i)| &self.samples[i]).collect()
    }
}

/// The distinct tokens of a question, sorted.
pub(crate) fn distinct_tokens(question: &str) -> Vec<String> {
    let mut tokens = tokenize_question(question);
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// Accuracy contribution (EX percentage points on Spider-style data) of a
/// module configuration on top of a bare backbone. Drives composed
/// pipelines and the AAS search; the constants reflect the ablation
/// patterns the paper reports (schema linking and few-shot examples help
/// most; NatSQL helps JOIN-heavy data; decomposition helps nesting but
/// costs tokens).
pub fn module_ex_bonus(m: &ModuleSet) -> f64 {
    // several modules only pay off next to a decoder that produces multiple
    // constrained candidates (the PLM setup); API backbones decode greedily
    let constrained = matches!(m.decoding, Decoding::Beam | Decoding::Picard);
    let mut bonus = 0.0;
    if m.schema_linking {
        bonus += 2.4;
    }
    if m.db_content {
        bonus += 1.5;
    }
    bonus += match m.few_shot {
        FewShot::ZeroShot => 0.0,
        FewShot::Manual => 1.0,
        FewShot::SimilarityBased => 2.1,
    };
    bonus += match m.multi_step {
        MultiStep::None => 0.0,
        // skeleton-first generation needs a constrained decoder to fill the
        // skeleton reliably
        MultiStep::SkeletonParsing => {
            if constrained {
                0.6
            } else {
                0.0
            }
        }
        // staged decomposition propagates errors on flat queries; it earns
        // its keep only on nested SQL (see `module_subquery_bonus`)
        MultiStep::Decomposition => -0.6,
    };
    bonus += match m.intermediate {
        Intermediate::None => 0.0,
        // NatSQL is lossy without grammar-constrained decoding back to SQL;
        // its JOIN advantage lives in `module_join_bonus`
        Intermediate::NatSql => {
            if constrained {
                0.8
            } else {
                -0.5
            }
        }
    };
    bonus += match m.decoding {
        Decoding::Greedy => 0.0,
        Decoding::Beam => 0.4,
        Decoding::Picard => 0.9,
    };
    bonus += match m.post {
        PostProcessing::None => 0.0,
        PostProcessing::SelfCorrection => 0.3,
        PostProcessing::SelfConsistency => 0.9,
        // candidate selection needs candidates: with greedy decoding there
        // is only one output to select or rerank
        PostProcessing::ExecutionGuided => {
            if constrained {
                1.0
            } else {
                0.1
            }
        }
        PostProcessing::Reranker => {
            if constrained {
                0.7
            } else {
                0.1
            }
        }
        // identifier repair works on the single decoded output, so it pays
        // off regardless of the decoder — but only recovers schema-binding
        // mistakes, a slice of all errors
        PostProcessing::StaticRepair => 0.5,
    };
    // decomposition stages and similarity-selected exemplars fight for the
    // same prompt structure
    if m.multi_step == MultiStep::Decomposition && m.few_shot == FewShot::SimilarityBased {
        bonus -= 0.8;
    }
    bonus
}

/// Subquery-specific extra points of a configuration (decomposition shines
/// on nested SQL — paper Finding 2's mechanism).
pub fn module_subquery_bonus(m: &ModuleSet) -> f64 {
    let mut b = 0.0;
    if m.multi_step == MultiStep::Decomposition {
        b += 2.0;
    }
    b
}

/// JOIN-specific extra points (NatSQL omits JOIN keywords — Finding 4).
pub fn module_join_bonus(m: &ModuleSet) -> f64 {
    let mut b = 0.0;
    if m.intermediate == Intermediate::NatSql {
        b += 2.0;
    }
    if m.schema_linking {
        b += 0.5;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind, GeneratedDb};
    use minidb::{TableSchema, Value};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5))
    }

    /// Jaccard similarity between the token sets of two questions (the
    /// core of DAIL-SQL's masked-question similarity selection).
    fn question_similarity(a: &str, b: &str) -> f64 {
        let ta: HashSet<String> = tokenize_question(a).into_iter().collect();
        let tb: HashSet<String> = tokenize_question(b).into_iter().collect();
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count() as f64;
        let union = ta.union(&tb).count() as f64;
        inter / union
    }

    /// The brute-force oracle [`FewShotIndex::select`] must equal: score
    /// the whole pool, stable-sort by similarity, keep `k`.
    fn select_few_shot<'a>(train: &'a [Sample], question: &str, k: usize) -> Vec<&'a Sample> {
        let mut scored: Vec<(f64, &Sample)> =
            train.iter().map(|s| (question_similarity(question, s.question()), s)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().take(k).map(|(_, s)| s).collect()
    }

    /// Positions in `pool` of the selected samples.
    fn positions(pool: &[Sample], shots: &[&Sample]) -> Vec<usize> {
        shots
            .iter()
            .map(|s| pool.iter().position(|p| std::ptr::eq(p, *s)).expect("shot is from the pool"))
            .collect()
    }

    fn assert_index_matches_oracle(pool: &[Sample], question: &str) {
        let index = FewShotIndex::new(pool);
        for k in [0, 1, 5, 9, pool.len() + 3] {
            assert_eq!(
                positions(pool, &index.select(question, k)),
                positions(pool, &select_few_shot(pool, question, k)),
                "k={k} question={question:?}"
            );
        }
    }

    /// A pool whose questions are `questions`, the rest of each sample
    /// borrowed from the tiny corpus.
    fn pool_of(questions: &[String]) -> Vec<Sample> {
        let template = corpus().train.swap_remove(0);
        questions
            .iter()
            .map(|q| Sample { variants: vec![q.clone()], ..template.clone() })
            .collect()
    }

    #[test]
    fn schema_linking_prunes_but_keeps_relevant() {
        let c = corpus();
        let s = &c.dev[0];
        let db = c.db(s);
        let prompt = DbPrompt::new(db);
        let kept = schema_link(&prompt, s.question());
        assert!(!kept.is_empty());
        assert!(kept.len() <= db.database.table_count());
        // the tables referenced by the gold SQL should survive pruning
        let mut referenced: Vec<String> = Vec::new();
        if let Some(from) = &s.query.body.from {
            for t in from.tables() {
                if let sqlkit::ast::TableRef::Named { name, .. } = t {
                    referenced.push(name.to_lowercase());
                }
            }
        }
        let kept_names: Vec<String> = kept.iter().map(|k| k.to_lowercase()).collect();
        for r in &referenced {
            assert!(
                kept_names.contains(r),
                "gold table {r} pruned away for question {:?}; kept {kept_names:?}",
                s.question()
            );
        }
    }

    #[test]
    fn schema_linking_closes_over_fk_parents() {
        let c = corpus();
        for s in c.dev.iter().take(10) {
            let db = c.db(s);
            let prompt = DbPrompt::new(db);
            let kept = schema_link(&prompt, s.question());
            let names: HashSet<&str> = kept.iter().copied().collect();
            for k in &kept {
                let schema = &db.database.table(k).unwrap().schema;
                for fk in &schema.foreign_keys {
                    assert!(names.contains(fk.ref_table.as_str()), "unclosed FK parent");
                }
            }
        }
    }

    #[test]
    fn content_match_finds_quoted_values() {
        let c = corpus();
        // find a dev sample whose question embeds a text value
        let hit = c.dev.iter().find_map(|s| {
            let matches = match_db_content(&DbPrompt::new(c.db(s)), s.question(), 8);
            (!matches.is_empty()).then_some((s, matches))
        });
        let (s, matches) = hit.expect("some question should mention a cell value");
        for m in &matches {
            assert!(s.question().to_lowercase().contains(&m.value.to_lowercase()));
        }
    }

    #[test]
    fn content_match_respects_limit() {
        let c = corpus();
        let s = &c.dev[0];
        assert!(match_db_content(&DbPrompt::new(c.db(s)), s.question(), 2).len() <= 2);
    }

    #[test]
    fn similarity_is_sane() {
        assert!(question_similarity("what is the name", "what is the name") > 0.99);
        assert_eq!(question_similarity("alpha beta", "gamma delta"), 0.0);
        let mid = question_similarity("what is the age of singers", "what is the name of singers");
        assert!(mid > 0.3 && mid < 1.0);
    }

    #[test]
    fn few_shot_returns_most_similar_first() {
        let c = corpus();
        let q = c.dev[0].question();
        let shots = select_few_shot(&c.train, q, 5);
        assert_eq!(shots.len(), 5);
        let s0 = question_similarity(q, shots[0].question());
        let s4 = question_similarity(q, shots[4].question());
        assert!(s0 >= s4);
    }

    #[test]
    fn index_matches_oracle_on_every_dev_variant() {
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let c = generate_corpus(kind, &CorpusConfig::tiny(5));
            let index = FewShotIndex::new(&c.train);
            assert_eq!(index.len(), c.train.len());
            for q in c.dev.iter().flat_map(|s| &s.variants) {
                for k in [0, 1, 5, 9] {
                    assert_eq!(
                        positions(&c.train, &index.select(q, k)),
                        positions(&c.train, &select_few_shot(&c.train, q, k)),
                        "{kind:?} k={k} question={q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn index_matches_oracle_on_edge_questions() {
        let pool = pool_of(&[
            "How many singers are there".into(),
            "".into(),
            "how how HOW many many".into(),
            "İstanbul'da kaç şarkıcı var".into(),
            "i\u{307}stanbul istanbul".into(),
            "?? -- !!".into(),
        ]);
        for q in [
            "",
            "   ,,, ",
            "zzz qqq xxx",
            "how how how",
            "HOW MANY SINGERS",
            "İSTANBUL",
            "i\u{307}stanbul",
            "how many singers are there in İstanbul",
        ] {
            assert_index_matches_oracle(&pool, q);
        }
        assert_index_matches_oracle(&[], "how many singers");
        let empty = FewShotIndex::new(&[]);
        assert!(empty.is_empty());
        assert!(empty.select("how many", 5).is_empty());
    }

    #[test]
    fn equally_similar_samples_keep_pool_order() {
        // sims against "a b": 1/3, 1/2, 1/3, 1/2, 1/2, 0, 1/2
        let pool = pool_of(&["a c", "a", "b d", "b", "a", "x", "b"].map(String::from));
        let index = FewShotIndex::new(&pool);
        assert_eq!(positions(&pool, &index.select("a b", 3)), [1, 3, 4]);
        assert_eq!(positions(&pool, &index.select("a b", 5)), [1, 3, 4, 6, 0]);
        assert_eq!(positions(&pool, &index.select("a b", 7)), [1, 3, 4, 6, 0, 2, 5]);
        // nothing in common with anything: every similarity is 0
        assert_eq!(positions(&pool, &index.select("q", 2)), [0, 1]);
        assert_index_matches_oracle(&pool, "a b");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Token soups over a five-word vocabulary force ties, repeats,
        /// empty questions and unknown tokens far more often than corpus
        /// questions do.
        #[test]
        fn index_matches_oracle_on_token_soups(
            pool in proptest::collection::vec("[abcİ ,]{0,10}", 0..24),
            question in "[abcdİ ,]{0,12}",
        ) {
            assert_index_matches_oracle(&pool_of(&pool), &question);
        }
    }

    /// Profiles of every database of a corpus, by id.
    fn profiles(c: &datagen::Corpus) -> HashMap<&str, DbPrompt> {
        c.databases.iter().map(|(id, db)| (id.as_str(), DbPrompt::new(db))).collect()
    }

    #[test]
    fn schema_link_equals_the_database_scan() {
        // the linker before the profile: it re-split every name per question
        fn by_scan<'a>(db: &'a GeneratedDb, question: &str) -> Vec<&'a TableSchema> {
            let tokens: HashSet<String> = tokenize_question(question).into_iter().collect();
            let name_matches = |name: &str| {
                let parts = name.to_lowercase();
                parts.split('_').any(|p| {
                    tokens.contains(p)
                        || tokens.contains(&format!("{p}s"))
                        || p.len() > 3 && tokens.iter().any(|t| t.starts_with(p))
                })
            };
            let mut kept: Vec<&TableSchema> = Vec::new();
            for t in db.database.tables() {
                let schema = &t.schema;
                let hit = name_matches(&schema.name)
                    || schema.columns.iter().any(|c| name_matches(&c.name));
                if hit {
                    kept.push(schema);
                }
            }
            if kept.is_empty() {
                if let Some(t) = db.database.tables().next() {
                    kept.push(&t.schema);
                }
            }
            loop {
                let names: HashSet<&str> = kept.iter().map(|s| s.name.as_str()).collect();
                let mut added = false;
                let mut to_add: Vec<&TableSchema> = Vec::new();
                for s in &kept {
                    for fk in &s.foreign_keys {
                        if !names.contains(fk.ref_table.as_str()) {
                            if let Ok(parent) = db.database.table(&fk.ref_table) {
                                to_add.push(&parent.schema);
                                added = true;
                            }
                        }
                    }
                }
                kept.extend(to_add);
                kept.sort_by(|a, b| a.name.cmp(&b.name));
                kept.dedup_by(|a, b| a.name == b.name);
                if !added {
                    break;
                }
            }
            kept
        }
        let mut pruned = 0;
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let c = generate_corpus(kind, &CorpusConfig::tiny(5));
            let prompts = profiles(&c);
            let mut questions: Vec<(&str, String)> = c
                .dev
                .iter()
                .flat_map(|s| s.variants.iter().map(|q| (s.db_id.as_str(), q.clone())))
                .collect();
            // per database: no token, a lone "s", every table name, and each
            // column name as a plural (short parts match only as plurals)
            for (id, db) in &c.databases {
                let tables: Vec<&str> =
                    db.database.tables().map(|t| t.schema.name.as_str()).collect();
                let every = ["".into(), "s".into(), tables.join(" ")];
                questions.extend(every.map(|q| (id.as_str(), q)));
                for t in db.database.tables() {
                    let plurals = t.schema.columns.iter().map(|col| format!("{}s", col.name));
                    questions.extend(plurals.map(|q| (id.as_str(), q)));
                }
            }
            for (id, q) in &questions {
                let db = &c.databases[*id];
                let got = schema_link(&prompts[id], q);
                let want: Vec<&str> = by_scan(db, q).iter().map(|s| s.name.as_str()).collect();
                assert_eq!(got, want, "{id} {q:?}");
                pruned += usize::from(got.len() < db.database.table_count());
            }
        }
        assert!(pruned > 0, "linking should prune some schema");
    }

    #[test]
    fn content_match_equals_the_row_at_a_time_scan() {
        // the scan this module used before it read typed storage in place
        fn by_value(db: &GeneratedDb, question: &str, limit: usize) -> Vec<ContentMatch> {
            let q_lower = question.to_lowercase();
            let mut out = Vec::new();
            for t in db.database.tables() {
                for (ci, col) in t.schema.columns.iter().enumerate() {
                    let mut seen: HashSet<String> = HashSet::new();
                    for r in 0..t.n_rows() {
                        let Value::Text(s) = t.column(ci).get(r) else { continue };
                        if out.len() < limit
                            && s.len() >= 3
                            && seen.insert(s.clone())
                            && q_lower.contains(&s.to_lowercase())
                        {
                            out.push(ContentMatch {
                                table: t.schema.name.clone(),
                                column: col.name.clone(),
                                value: s,
                            });
                        }
                    }
                }
            }
            out
        }
        let mut matched = 0;
        for kind in [CorpusKind::Spider, CorpusKind::Bird] {
            let c = generate_corpus(kind, &CorpusConfig::tiny(5));
            let prompts = profiles(&c);
            for s in &c.dev {
                for q in &s.variants {
                    for limit in [0, 1, 6, 100] {
                        let got = match_db_content(&prompts[s.db_id.as_str()], q, limit);
                        assert_eq!(got, by_value(c.db(s), q, limit), "{q:?} limit {limit}");
                        matched += got.len();
                    }
                }
            }
        }
        assert!(matched > 0, "some question should mention a cell value");
    }

    #[test]
    fn module_bonus_monotone_in_modules() {
        let bare = module_ex_bonus(&ModuleSet::bare());
        let full = module_ex_bonus(&ModuleSet::supersql());
        assert_eq!(bare, 0.0);
        assert!(full > 5.0, "supersql bonus {full}");
    }

    #[test]
    fn natsql_helps_joins() {
        let mut m = ModuleSet::bare();
        assert_eq!(module_join_bonus(&m), 0.0);
        m.intermediate = Intermediate::NatSql;
        assert!(module_join_bonus(&m) > 0.0);
    }
}
