//! Golden digests of generated corpora. Every gold query's printed SQL,
//! feature vector and hardness buckets, and the dev split of each Dr.Spider
//! perturbation family, are folded into one FNV-1a digest per corpus kind
//! and seed. Feature extraction, hardness, schema renaming and literal
//! rewriting are all passes over the SQL AST, so a change to how any of
//! them walks a query that moves a single sample fails here.

use datagen::{generate_corpus, perturb_corpus, Corpus, CorpusConfig, CorpusKind, Perturbation};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_samples(h: &mut u64, label: &str, samples: &[datagen::Sample]) {
    fnv1a(h, label.as_bytes());
    for s in samples {
        let line = format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}\n",
            s.db_id, s.sql, s.variants, s.hardness, s.bird_difficulty, s.features, s.perturbation
        );
        fnv1a(h, line.as_bytes());
    }
}

fn corpus_digest(corpus: &Corpus, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fold_samples(&mut h, "train", &corpus.train);
    fold_samples(&mut h, "dev", &corpus.dev);
    for kind in Perturbation::ALL {
        let p = perturb_corpus(corpus, kind, seed);
        fold_samples(&mut h, kind.label(), &p.dev);
    }
    h
}

fn assert_golden(kind: CorpusKind, golden: [(u64, u64); 2]) {
    for (seed, digest) in golden {
        let corpus = generate_corpus(kind, &CorpusConfig::tiny(seed));
        assert_eq!(
            corpus_digest(&corpus, seed),
            digest,
            "{kind:?} tiny({seed}): gold SQL, features, hardness or a perturbation drifted"
        );
    }
}

#[test]
fn spider_corpus_is_byte_stable() {
    assert_golden(CorpusKind::Spider, [(7, 0x58a7_c465_a17a_aa41), (21, 0x7320_c0fd_d36b_6fa3)]);
}

#[test]
fn bird_corpus_is_byte_stable() {
    assert_golden(CorpusKind::Bird, [(7, 0x7ff0_829d_0a55_cd8d), (21, 0xf8c7_2f8c_af52_18e4)]);
}
