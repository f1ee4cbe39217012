//! Golden digests of the serialized [`EvalLog`] for the three
//! similarity-based methods. The values were computed on the commit
//! before few-shot retrieval became an inverted index, so a retrieval
//! change that reorders or swaps a single exemplar — and with it
//! `prompt_tokens` and `cost_usd` — fails here. The BIRD digests were
//! regenerated when minidb began binding names before execution: prompt
//! tokens, EX and EM are what they were, and six records differ — two
//! predictions that executed only because no row ever reached their unknown
//! column now report `UnknownColumn`, and the corruption check, no longer
//! mistaking such a candidate for gold, keeps it instead of mutating again
//! (CHANGES.md, PR 19, lists them).

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::profiles::fnv1a;
use modelzoo::{method_by_name, SimulatedModel};
use nl2sql360::{EvalContext, EvalOptions};

fn assert_golden(kind: CorpusKind, golden: [(&str, usize, u64, u64); 3]) {
    let corpus = generate_corpus(kind, &CorpusConfig::tiny(21));
    let ctx = EvalContext::new(&corpus);
    for (method, len, fnv, prompt_tokens) in golden {
        let model = SimulatedModel::new(method_by_name(method).unwrap());
        let log = ctx.evaluate_with(&model, &EvalOptions::new().workers(1)).unwrap();
        let spent: u64 =
            log.records.iter().flat_map(|r| &r.variants).map(|v| v.prompt_tokens).sum();
        assert_eq!(spent, prompt_tokens, "{kind:?} {method}: prompt tokens drifted");
        let json = serde_json::to_string(&log).unwrap();
        assert_eq!(
            (json.len(), fnv1a(&[json.as_bytes()])),
            (len, fnv),
            "{kind:?} {method}: EvalLog bytes drifted"
        );
    }
}

#[test]
fn spider_logs_of_similarity_based_methods_are_byte_stable() {
    assert_golden(
        CorpusKind::Spider,
        [
            ("SuperSQL", 68748, 0xab66_e2e7_1f48_8ccc, 74485),
            ("DAILSQL", 68555, 0x4561_0105_7422_ccae, 77114),
            ("DAILSQL(SC)", 68758, 0x06ef_9eb1_9117_0626, 77114),
        ],
    );
}

#[test]
fn bird_logs_of_similarity_based_methods_are_byte_stable() {
    assert_golden(
        CorpusKind::Bird,
        [
            ("SuperSQL", 70044, 0xdf0b_4a11_c8bf_d4fa, 114283),
            ("DAILSQL", 70129, 0x6826_a83c_9b5e_97c4, 114475),
            ("DAILSQL(SC)", 70203, 0x45d8_5554_ffd8_e1c6, 114475),
        ],
    );
}
