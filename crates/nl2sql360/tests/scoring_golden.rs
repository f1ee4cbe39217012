//! Golden digests of what the evaluator scores a prediction against: EX on
//! the primary database and on every test-suite instance, EM, the failure
//! kind, the static verdict and the match kind, for one method of each
//! class and a composed pipeline whose post-processing is StaticRepair —
//! the four consumers of a database's catalog and vocabulary. A change to
//! how a prediction is translated, repaired, corrupted or scored that moves
//! a single record fails here; so does one that moves the AAS fitness.

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::profiles::fnv1a;
use modelzoo::{method_by_name, ModuleSet, PostProcessing, SimulatedModel};
use nl2sql360::{compose, gpt35, EvalContext, EvalOptions};

fn models() -> Vec<SimulatedModel> {
    let mut repaired = ModuleSet::bare();
    repaired.post = PostProcessing::StaticRepair;
    let mut out: Vec<SimulatedModel> = ["RESDSQL-3B", "SFT CodeS-7B", "C3SQL"]
        .iter()
        .map(|m| SimulatedModel::new(method_by_name(m).unwrap()))
        .collect();
    out.push(compose("GPT-3.5 + StaticRepair".into(), &gpt35(), repaired));
    out
}

/// `(bytes, FNV-1a)` of each model's log on a two-instance test suite with
/// static verdicts and match kinds recorded, and each model's AAS fitness
/// on the plain context.
fn digests(kind: CorpusKind) -> (Vec<(usize, u64)>, Vec<f64>) {
    let corpus = generate_corpus(kind, &CorpusConfig::tiny(21));
    let suite = EvalContext::with_test_suite(&corpus, 2);
    let opts = EvalOptions::new().workers(1).static_check(true).match_kind(true);
    let logs = models()
        .iter()
        .map(|model| {
            let json = serde_json::to_string(&suite.evaluate_with(model, &opts).unwrap()).unwrap();
            (json.len(), fnv1a(&[json.as_bytes()]))
        })
        .collect();
    let plain = EvalContext::new(&corpus);
    let fitness = models().iter().map(|model| plain.fitness_ex(model, 40).unwrap()).collect();
    (logs, fitness)
}

#[test]
fn spider_scored_logs_are_byte_stable() {
    let logs = vec![
        (71411, 0xf1a9_9d0b_ce6c_e675),
        (71704, 0xe2ff_7a6b_e281_a932),
        (72517, 0xb669_2776_2eeb_6688),
        (72124, 0xa6be_0c6e_465f_665e),
    ];
    assert_eq!(digests(CorpusKind::Spider), (logs, vec![85.0, 85.0, 87.5, 72.5]));
}

#[test]
fn bird_scored_logs_are_byte_stable() {
    let logs = vec![
        (73584, 0x9d60_7936_ad05_e860),
        (73882, 0x27bd_5441_dbb4_8cac),
        (74854, 0x85dd_e2ac_f355_521b),
        (74435, 0x6a2d_daff_883a_1d46),
    ];
    assert_eq!(digests(CorpusKind::Bird), (logs, vec![35.0, 47.5, 42.5, 35.0]));
}
