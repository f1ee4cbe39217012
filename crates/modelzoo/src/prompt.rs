//! Prompt construction and token accounting for prompt-based methods.
//!
//! Each method style's prompt is a schema serialization (Figure 10's
//! SQL-style prompt) with optional DB-content comments (Figure 15),
//! optional few-shot examples and a per-method instruction block; the
//! token model of Exp-6 (Table 5) is computed from its length plus the
//! number of API calls the method makes (DIN-SQL's four-stage
//! decomposition, C3's and DAIL-SC's self-consistency sampling).
//!
//! A token is ⌈chars / 4⌉ ([`tokens_of_chars`]), so what a prompt costs is
//! a sum of the lengths of its parts. A [`DbPrompt`] holds what one
//! database contributes to any prompt over it, built once; a
//! [`PromptPlan`] records what one prompt contains and adds up its length
//! ([`PromptPlan::chars`]). The text itself is written only on demand
//! ([`PromptPlan::render`]), and tests pin its length to that sum.

use crate::economy::tokens_of_chars;
use crate::modules::{content_hits, distinct_tokens, linked_tables, ContentHit, FewShotIndex};
use crate::taxonomy::{FewShot, ModuleSet, MultiStep, PostProcessing};
use datagen::{GeneratedDb, Sample};
use minidb::{ColumnData, TableSchema, Value};
use std::collections::HashSet;
use std::fmt::Write;
use std::sync::LazyLock;

/// Token accounting for one NL2SQL task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromptAccounting {
    /// Total prompt tokens across all API calls for the task.
    pub prompt_tokens: u64,
    /// Total completion tokens across all API calls.
    pub completion_tokens: u64,
}

impl PromptAccounting {
    /// Combined token count (the paper's "Avg. Tokens / Query").
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// DB-content matches a prompt annotates at most.
const CONTENT_LIMIT: usize = 6;
/// Similar training examples a similarity-based prompt shows.
const SHOTS: usize = 5;

// The fixed blocks of a prompt. Each is ASCII, so its `len()` is its
// length in chars (pinned by `fixed_blocks_are_ascii`).
const SCHEMA_HEADER: &str = "/* Given the following database schema: */\n";
const TABLE_END: &str = "\n\n";
const VALUE_OPEN: &str = " -- value examples: '";
const VALUE_CLOSE: &str = "'";
const ASK_OPEN: &str = "/* Answer the following: ";
const ASK_CLOSE: &str = " */\n";
const SHOT_END: &str = ";\n\n";

/// Standing instruction block per method family (sized to reflect each
/// method's published prompt overheads).
fn method_instructions(method_name: &str) -> &'static str {
    if method_name.starts_with("C3") {
        C3_INSTRUCTIONS
    } else if method_name.starts_with("DIN") {
        DIN_INSTRUCTIONS
    } else {
        DAIL_INSTRUCTIONS
    }
}

const C3_INSTRUCTIONS: &str = "/* You are an expert SQL writer. Follow the clear prompting \
    calibration rules: (1) only select the columns the question asks for; (2) prefer \
    conservative JOIN paths along declared foreign keys; (3) never invent tables or \
    columns; (4) use aggregate functions only when the question asks for counts, sums, \
    averages, minima or maxima; (5) add ORDER BY and LIMIT only when the question asks \
    for extremes or top-k results; (6) return exactly one SQL statement and nothing else. \
    Think about which tables are required, which columns must appear in the projection, \
    which predicates belong in WHERE versus HAVING, and whether the question implies \
    nesting. */\n";
const DAIL_INSTRUCTIONS: &str =
    "/* Complete the SQL for the final question, consistent with the examples above. */\n";
const DIN_INSTRUCTIONS: &str = "/* Decomposed in-context pipeline: first classify the \
    question (easy / non-nested complex / nested complex), then produce intermediate \
    sub-questions, then generate the SQL, then self-correct it against the schema. */\n";

/// DIN-SQL's generation-stage exemplars and their length in chars.
static MANUAL_EXEMPLARS: LazyLock<(String, usize)> = LazyLock::new(|| {
    let text = manual_exemplar_library("generation", 8);
    let chars = text.chars().count();
    (text, chars)
});

/// A synthetic manual few-shot library standing in for DIN-SQL's fixed
/// hand-written exemplars (the original ships ~10 long schema+reasoning
/// examples per stage; this generates an equivalently-sized block).
pub fn manual_exemplar_library(stage: &str, examples: usize) -> String {
    let mut out = format!("/* Stage: {stage} — worked examples */\n");
    for i in 0..examples {
        let _ = writeln!(
            out,
            "/* Example {i}: Schema: CREATE TABLE employee (id int primary key, name text, \
             department text, salary int); CREATE TABLE department (id int primary key, \
             name text, budget int). Question: Which departments have an average salary \
             above the company-wide average salary? Reasoning: the question asks for a \
             grouped aggregate compared against a scalar subquery; first compute the \
             overall average, then group employees by department and filter with HAVING. */"
        );
        let _ = writeln!(
            out,
            "SELECT department FROM employee GROUP BY department \
             HAVING AVG(salary) > (SELECT AVG(salary) FROM employee);"
        );
    }
    out
}

/// What one database contributes to any prompt over it, computed once per
/// database: each table's DDL and its length, the name parts schema linking
/// matches, its FK parents, and each text column's DB-content candidates.
/// It owns what it holds, so a lazily filled cache of profiles borrows
/// nothing from the corpus.
pub struct DbPrompt {
    db_id: String,
    /// In `Database::tables` order.
    pub(crate) tables: Vec<TablePrompt>,
    /// Table indices by table name: the order linked tables are written in.
    pub(crate) by_name: Vec<usize>,
}

/// One table's share of a [`DbPrompt`].
pub(crate) struct TablePrompt {
    pub(crate) name: String,
    /// `create_table_sql()` and its length in chars.
    ddl: String,
    ddl_chars: usize,
    /// The distinct `_`-separated parts of the lowered table and column
    /// names.
    pub(crate) name_parts: Vec<NamePart>,
    /// Indices of the tables this one's foreign keys reference.
    pub(crate) fk_parents: Vec<usize>,
    /// The columns holding text, in column order.
    pub(crate) text_columns: Vec<TextColumn>,
}

/// A lowered name part and its plural, as schema linking compares them.
pub(crate) struct NamePart {
    pub(crate) part: String,
    pub(crate) plural: String,
}

/// One text column's DB-content candidates: its distinct values of at
/// least 3 bytes, first occurrence first, kept back to back (two strings
/// per column rather than two per value).
pub(crate) struct TextColumn {
    pub(crate) name: String,
    /// Its DDL line takes a `-- value examples` comment: the DDL holds
    /// the `"  {name} "` the annotation looks for.
    annotated: bool,
    /// The candidates as written, and lowered.
    texts: String,
    lowered: String,
    /// Candidate `i` is `texts[bounds[i].0..bounds[i + 1].0]` and, lowered,
    /// `lowered[bounds[i].1..bounds[i + 1].1]`.
    bounds: Vec<(usize, usize)>,
}

impl TextColumn {
    /// The candidates, lowered, in order.
    pub(crate) fn lowered(&self) -> impl Iterator<Item = &str> {
        self.bounds.windows(2).map(|w| &self.lowered[w[0].1..w[1].1])
    }

    /// Candidate `i` as written.
    pub(crate) fn text(&self, i: usize) -> &str {
        &self.texts[self.bounds[i].0..self.bounds[i + 1].0]
    }
}

impl DbPrompt {
    /// Profile `db`: renders each table's DDL once and scans each text
    /// column once.
    pub fn new(db: &GeneratedDb) -> Self {
        let tables: Vec<&minidb::Table> = db.database.tables().collect();
        let index_of = |name: &str| {
            let table = db.database.table(name).ok()?;
            tables.iter().position(|&t| std::ptr::eq(t, table))
        };
        let tables: Vec<TablePrompt> = tables
            .iter()
            .map(|t| {
                let schema = &t.schema;
                let ddl = schema.create_table_sql();
                let text_columns = (0..schema.columns.len())
                    .filter_map(|ci| text_column(t, ci, &ddl))
                    .collect();
                TablePrompt {
                    name: schema.name.clone(),
                    ddl_chars: ddl.chars().count(),
                    ddl,
                    name_parts: name_parts(schema),
                    fk_parents: schema
                        .foreign_keys
                        .iter()
                        .filter_map(|fk| index_of(&fk.ref_table))
                        .collect(),
                    text_columns,
                }
            })
            .collect();
        let mut by_name: Vec<usize> = (0..tables.len()).collect();
        by_name.sort_by(|&a, &b| tables[a].name.cmp(&tables[b].name));
        Self { db_id: db.db_id.clone(), tables, by_name }
    }

    /// Whether this is the profile of `db`.
    pub fn describes(&self, db: &GeneratedDb) -> bool {
        self.db_id == db.db_id
    }

    /// The text column a content match is in.
    pub(crate) fn column(&self, hit: &ContentHit) -> &TextColumn {
        &self.tables[hit.table].text_columns[hit.column]
    }
}

/// The distinct `_`-separated parts of a table's lowered table and column
/// names.
fn name_parts(schema: &TableSchema) -> Vec<NamePart> {
    let mut parts: Vec<NamePart> = Vec::new();
    for name in std::iter::once(&schema.name).chain(schema.columns.iter().map(|c| &c.name)) {
        for part in name.to_lowercase().split('_') {
            if !parts.iter().any(|p| p.part == part) {
                parts.push(NamePart { part: part.to_string(), plural: format!("{part}s") });
            }
        }
    }
    parts
}

/// Column `ci`'s DB-content candidates, or `None` when it holds no text
/// of at least 3 bytes.
fn text_column(table: &minidb::Table, ci: usize, ddl: &str) -> Option<TextColumn> {
    // text cells only, read in place from the typed storage (a NULL slot
    // of a text column holds "" and is too short)
    let (texts, mixed): (&[String], &[Value]) = match table.column(ci).data() {
        ColumnData::Text(cells) => (cells, &[]),
        ColumnData::Mixed(cells) => (&[], cells),
        ColumnData::Int(_) | ColumnData::Real(_) => return None,
    };
    let cells = texts.iter().chain(mixed.iter().filter_map(|v| match v {
        Value::Text(s) => Some(s),
        _ => None,
    }));
    let name = table.schema.columns[ci].name.clone();
    let annotated = ddl.contains(&format!("  {name} "));
    let mut column = TextColumn {
        name,
        annotated,
        texts: String::new(),
        lowered: String::new(),
        bounds: vec![(0, 0)],
    };
    let mut seen: HashSet<&str> = HashSet::new();
    for s in cells.filter(|s| s.len() >= 3 && seen.insert(s)) {
        column.texts.push_str(s);
        column.lowered.push_str(&s.to_lowercase());
        column.bounds.push((column.texts.len(), column.lowered.len()));
    }
    column.texts.shrink_to_fit();
    column.lowered.shrink_to_fit();
    column.bounds.shrink_to_fit();
    (column.bounds.len() > 1).then_some(column)
}

/// What one prompt contains: the tables it serializes, the DB-content
/// matches it annotates them with, its few-shot examples, its instruction
/// block and its question.
pub struct PromptPlan<'p> {
    prompt: &'p DbPrompt,
    modules: ModuleSet,
    /// Indices into `prompt.tables`, in the order they are written.
    tables: Vec<usize>,
    /// The content matches that annotate a written table.
    content: Vec<ContentHit>,
    /// The similarity-selected examples (empty unless the method selects
    /// by similarity and has an index to select from).
    shots: Vec<&'p Sample>,
    instructions: &'static str,
    question: &'p str,
}

impl<'p> PromptPlan<'p> {
    /// Plan the prompt a method configuration sends for `question`: runs
    /// the method's schema linking, DB-content matching and few-shot
    /// selection (`few_shot_index` `None` disables similarity selection).
    pub fn new(
        method_name: &str,
        modules: &ModuleSet,
        prompt: &'p DbPrompt,
        question: &'p str,
        few_shot_index: Option<&'p FewShotIndex<'p>>,
    ) -> Self {
        let _span = obs::span("modelzoo.build_prompt");
        let index = few_shot_index.filter(|_| modules.few_shot == FewShot::SimilarityBased);
        let tokens = if modules.schema_linking || index.is_some() {
            distinct_tokens(question)
        } else {
            Vec::new()
        };
        let tables = if modules.schema_linking {
            let _span = obs::span("modelzoo.schema_link");
            linked_tables(prompt, &tokens)
        } else {
            (0..prompt.tables.len()).collect()
        };
        let mut content = if modules.db_content {
            let _span = obs::span("modelzoo.db_content");
            content_hits(prompt, &question.to_lowercase(), CONTENT_LIMIT)
        } else {
            Vec::new()
        };
        content.retain(|hit| tables.contains(&hit.table) && prompt.column(hit).annotated);
        let shots = match index {
            Some(index) => {
                let _span = obs::span("modelzoo.few_shot");
                index.select_tokens(&tokens, SHOTS)
            }
            None => Vec::new(),
        };
        Self {
            prompt,
            modules: *modules,
            tables,
            content,
            shots,
            instructions: method_instructions(method_name),
            question,
        }
    }

    /// The prompt's length in chars: [`render`](Self::render)'s
    /// `chars().count()`, added up from the profile's lengths.
    pub fn chars(&self) -> usize {
        let tables: usize =
            self.tables.iter().map(|&t| self.prompt.tables[t].ddl_chars + TABLE_END.len()).sum();
        let annotations: usize = self
            .content
            .iter()
            .map(|hit| {
                let value = self.prompt.column(hit).text(hit.value);
                VALUE_OPEN.len() + value.chars().count() + VALUE_CLOSE.len()
            })
            .sum();
        let examples = match self.modules.few_shot {
            FewShot::ZeroShot => 0,
            FewShot::Manual => MANUAL_EXEMPLARS.1,
            FewShot::SimilarityBased => self
                .shots
                .iter()
                .map(|s| ask_chars(s.question()) + s.sql.chars().count() + SHOT_END.len())
                .sum(),
        };
        SCHEMA_HEADER.len()
            + tables
            + annotations
            + examples
            + self.instructions.len()
            + ask_chars(self.question)
    }

    /// The prompt text of one call.
    pub fn render(&self) -> String {
        let mut out = String::from(SCHEMA_HEADER);
        for &t in &self.tables {
            let mut sql = self.prompt.tables[t].ddl.clone();
            // each match's comment goes at the end of its column's line
            for hit in self.content.iter().filter(|hit| hit.table == t) {
                let column = self.prompt.column(hit);
                let value = column.text(hit.value);
                if let Some(pos) = sql.find(&format!("  {} ", column.name)) {
                    if let Some(eol) = sql[pos..].find('\n') {
                        sql.insert_str(
                            pos + eol,
                            &format!("{VALUE_OPEN}{value}{VALUE_CLOSE}"),
                        );
                    }
                }
            }
            out.push_str(&sql);
            out.push_str(TABLE_END);
        }
        match self.modules.few_shot {
            FewShot::ZeroShot => {}
            FewShot::Manual => out.push_str(&MANUAL_EXEMPLARS.0),
            FewShot::SimilarityBased => {
                for s in &self.shots {
                    push_ask(&mut out, s.question());
                    out.push_str(&s.sql);
                    out.push_str(SHOT_END);
                }
            }
        }
        out.push_str(self.instructions);
        push_ask(&mut out, self.question);
        out
    }

    /// Token accounting across every call the method makes, for a
    /// completion of `predicted_sql_len` chars.
    pub fn accounting(&self, predicted_sql_len: usize) -> PromptAccounting {
        let per_call_prompt = tokens_of_chars(self.chars());
        let sql_tokens = tokens_of_chars(predicted_sql_len.max(8));
        let modules = &self.modules;
        // call structure
        let calls: u64 = match modules.multi_step {
            MultiStep::Decomposition => 4, // DIN-SQL: classify, decompose, generate, correct
            _ => 1,
        };
        let sc_samples: u64 = match modules.post {
            PostProcessing::SelfConsistency => 8,
            PostProcessing::SelfCorrection => 2,
            _ => 1,
        };
        // Self-consistency resamples completions against one prompt; C3-style
        // zero-shot SC additionally re-sends the prompt per sample.
        let resend_prompt = modules.post == PostProcessing::SelfConsistency
            && modules.few_shot == FewShot::ZeroShot;
        let prompt_tokens =
            per_call_prompt * calls * if resend_prompt { sc_samples } else { 1 };
        let completion_tokens = sql_tokens * calls.max(1) * sc_samples;
        PromptAccounting { prompt_tokens, completion_tokens }
    }
}

/// Length of a `/* Answer the following: … */` line.
fn ask_chars(question: &str) -> usize {
    ASK_OPEN.len() + question.chars().count() + ASK_CLOSE.len()
}

fn push_ask(out: &mut String, question: &str) {
    out.push_str(ASK_OPEN);
    out.push_str(question);
    out.push_str(ASK_CLOSE);
}

/// Build the prompt text and call-count accounting for a method
/// configuration on one task.
///
/// Returns (representative prompt text of one call, accounting across all
/// calls). The text is what an `examples/` binary can print to show users
/// the actual prompt; translation itself needs only the accounting, which
/// [`PromptPlan::accounting`] gives without writing the text.
pub fn build_prompt(
    method_name: &str,
    modules: &ModuleSet,
    prompt: &DbPrompt,
    question: &str,
    few_shot_index: Option<&FewShotIndex<'_>>,
    predicted_sql_len: usize,
) -> (String, PromptAccounting) {
    let plan = PromptPlan::new(method_name, modules, prompt, question, few_shot_index);
    (plan.render(), plan.accounting(predicted_sql_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{Decoding, Intermediate};
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(9))
    }

    fn index(c: &datagen::Corpus) -> FewShotIndex<'_> {
        FewShotIndex::new(&c.train)
    }

    fn modules_dail() -> ModuleSet {
        ModuleSet {
            schema_linking: false,
            db_content: false,
            few_shot: FewShot::SimilarityBased,
            multi_step: MultiStep::None,
            intermediate: Intermediate::None,
            decoding: Decoding::Greedy,
            post: PostProcessing::None,
        }
    }

    fn modules_din() -> ModuleSet {
        ModuleSet {
            schema_linking: true,
            db_content: false,
            few_shot: FewShot::Manual,
            multi_step: MultiStep::Decomposition,
            intermediate: Intermediate::NatSql,
            decoding: Decoding::Greedy,
            post: PostProcessing::SelfCorrection,
        }
    }

    fn modules_c3() -> ModuleSet {
        ModuleSet {
            schema_linking: true,
            db_content: false,
            few_shot: FewShot::ZeroShot,
            multi_step: MultiStep::None,
            intermediate: Intermediate::None,
            decoding: Decoding::Greedy,
            post: PostProcessing::SelfConsistency,
        }
    }

    #[test]
    fn prompt_contains_schema_and_question() {
        let c = corpus();
        let s = &c.dev[0];
        let p = DbPrompt::new(c.db(s));
        let (text, acc) =
            build_prompt("DAILSQL", &modules_dail(), &p, s.question(), Some(&index(&c)), 60);
        assert!(text.contains("CREATE TABLE"), "{text}");
        assert!(text.contains(s.question()));
        assert!(acc.prompt_tokens > 50);
        assert!(acc.completion_tokens > 0);
    }

    #[test]
    fn few_shot_examples_included() {
        let c = corpus();
        let s = &c.dev[0];
        let p = DbPrompt::new(c.db(s));
        let (text, _) =
            build_prompt("DAILSQL", &modules_dail(), &p, s.question(), Some(&index(&c)), 60);
        assert!(text.matches("/* Answer the following:").count() >= 2, "shots + question");
        assert!(text.contains("SELECT"), "shots include SQL");
    }

    #[test]
    fn din_multistage_costs_most_tokens() {
        let c = corpus();
        let s = &c.dev[0];
        let p = DbPrompt::new(c.db(s));
        let (_, din) =
            build_prompt("DINSQL", &modules_din(), &p, s.question(), Some(&index(&c)), 60);
        let (_, dail) =
            build_prompt("DAILSQL", &modules_dail(), &p, s.question(), Some(&index(&c)), 60);
        let (_, c3) =
            build_prompt("C3SQL", &modules_c3(), &p, s.question(), Some(&index(&c)), 60);
        assert!(
            din.total() > c3.total(),
            "DIN {} should exceed C3 {}",
            din.total(),
            c3.total()
        );
        assert!(c3.total() > dail.total(), "C3 {} > DAIL {}", c3.total(), dail.total());
    }

    #[test]
    fn self_consistency_multiplies_completions() {
        let c = corpus();
        let s = &c.dev[0];
        let p = DbPrompt::new(c.db(s));
        let mut sc = modules_dail();
        sc.post = PostProcessing::SelfConsistency;
        let (_, plain) =
            build_prompt("DAILSQL", &modules_dail(), &p, s.question(), Some(&index(&c)), 60);
        let (_, with_sc) =
            build_prompt("DAILSQL(SC)", &sc, &p, s.question(), Some(&index(&c)), 60);
        assert_eq!(with_sc.completion_tokens, plain.completion_tokens * 8);
        assert_eq!(with_sc.prompt_tokens, plain.prompt_tokens, "few-shot SC reuses prompt");
    }

    #[test]
    fn schema_linking_reduces_prompt_tokens() {
        let c = corpus();
        // pick the db with the most tables to make pruning visible
        let s = c
            .dev
            .iter()
            .max_by_key(|s| c.db(s).database.table_count())
            .unwrap();
        let p = DbPrompt::new(c.db(s));
        let mut unlinked = modules_dail();
        unlinked.few_shot = FewShot::ZeroShot;
        let mut linked = unlinked;
        linked.schema_linking = true;
        let (_, full) = build_prompt("X", &unlinked, &p, s.question(), None, 60);
        let (_, pruned) = build_prompt("X", &linked, &p, s.question(), None, 60);
        assert!(pruned.prompt_tokens <= full.prompt_tokens);
    }

    #[test]
    fn db_content_annotates_columns() {
        let c = corpus();
        // find a sample whose question mentions a cell value
        let s = c
            .dev
            .iter()
            .find(|s| {
                !crate::modules::match_db_content(&DbPrompt::new(c.db(s)), s.question(), 4)
                    .is_empty()
            })
            .expect("some question should mention a cell value");
        let mut m = modules_dail();
        m.db_content = true;
        let (text, _) =
            build_prompt("SuperSQL", &m, &DbPrompt::new(c.db(s)), s.question(), None, 60);
        assert!(text.contains("value examples:"), "{text}");
    }

    #[test]
    fn accounting_totals() {
        let acc = PromptAccounting { prompt_tokens: 10, completion_tokens: 5 };
        assert_eq!(acc.total(), 15);
    }

    #[test]
    fn fixed_blocks_are_ascii() {
        for block in [
            SCHEMA_HEADER,
            TABLE_END,
            VALUE_OPEN,
            VALUE_CLOSE,
            ASK_OPEN,
            ASK_CLOSE,
            SHOT_END,
            C3_INSTRUCTIONS,
            DAIL_INSTRUCTIONS,
            DIN_INSTRUCTIONS,
        ] {
            assert!(block.is_ascii(), "{block}");
        }
    }
}
