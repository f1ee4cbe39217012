//! NL2SQL360-AAS: automated architecture search over the NL2SQL design
//! space (paper §5.2, Figure 14).
//!
//! A standard genetic algorithm over [`ModuleSet`] individuals:
//!
//! 1. **Initialization** — N random module combinations;
//! 2. **Individual selection** — Russian-roulette (fitness-proportional)
//!    sampling that consistently eliminates the worst performer;
//! 3. **Module swap** — selected pairs exchange whole layers with
//!    probability `p_swap` per layer;
//! 4. **Module mutation** — each layer re-randomizes with probability
//!    `p_mutation`.
//!
//! Fitness is the *measured* Execution Accuracy of the composed pipeline on
//! the target dataset, evaluated through the same executor as every other
//! experiment. The paper's case study uses N=10, T=20, p_s=0.5, p_m=0.2
//! with GPT-3.5 as the search backbone, then re-bases the winner on GPT-4 —
//! which yields the SuperSQL composition.

use crate::executor::{default_workers, fan_out, EvalContext};
use crate::pipeline::{compose, Backbone};
use modelzoo::{Decoding, FewShot, Intermediate, ModuleSet, MultiStep, PostProcessing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// GA hyper-parameters; `default_paper` matches the §5.3 case study.
#[derive(Debug, Clone, Copy)]
pub struct AasConfig {
    /// Population size N.
    pub population: usize,
    /// Number of generations T.
    pub generations: usize,
    /// Per-layer module swap probability p_s.
    pub p_swap: f64,
    /// Per-layer module mutation probability p_m.
    pub p_mutation: f64,
    /// Dev samples used per fitness evaluation.
    pub fitness_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl AasConfig {
    /// The paper's case-study settings: N=10, T=20, p_s=0.5, p_m=0.2.
    pub fn paper(seed: u64) -> Self {
        Self {
            population: 10,
            generations: 20,
            p_swap: 0.5,
            p_mutation: 0.2,
            fitness_samples: 200,
            seed,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            population: 6,
            generations: 4,
            p_swap: 0.5,
            p_mutation: 0.2,
            fitness_samples: 40,
            seed,
        }
    }
}

/// Statistics of one generation.
#[derive(Debug, Clone, Copy)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best fitness in the population.
    pub best: f64,
    /// Mean fitness.
    pub mean: f64,
    /// Worst fitness.
    pub worst: f64,
}

/// Result of a search run.
#[derive(Debug, Clone)]
pub struct AasResult {
    /// The best module combination found.
    pub best: ModuleSet,
    /// Its fitness (EX percent on the fitness subset).
    pub best_fitness: f64,
    /// Per-generation statistics (convergence curve).
    pub history: Vec<GenerationStats>,
    /// Number of distinct pipelines evaluated.
    pub evaluations: usize,
}

fn random_modules(rng: &mut StdRng) -> ModuleSet {
    ModuleSet {
        schema_linking: rng.gen_bool(0.5),
        db_content: rng.gen_bool(0.5),
        few_shot: *pick(rng, &[FewShot::ZeroShot, FewShot::Manual, FewShot::SimilarityBased]),
        multi_step: *pick(
            rng,
            &[MultiStep::None, MultiStep::SkeletonParsing, MultiStep::Decomposition],
        ),
        intermediate: *pick(rng, &[Intermediate::None, Intermediate::NatSql]),
        // the case study fixes decoding to Greedy (API backbones expose no
        // decoder control)
        decoding: Decoding::Greedy,
        post: *pick(
            rng,
            &[
                PostProcessing::None,
                PostProcessing::SelfCorrection,
                PostProcessing::SelfConsistency,
                PostProcessing::ExecutionGuided,
                PostProcessing::Reranker,
                PostProcessing::StaticRepair,
            ],
        ),
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

fn mutate_layer(m: &mut ModuleSet, layer: usize, rng: &mut StdRng) {
    match layer {
        0 => m.schema_linking = !m.schema_linking,
        1 => m.db_content = !m.db_content,
        2 => {
            m.few_shot =
                *pick(rng, &[FewShot::ZeroShot, FewShot::Manual, FewShot::SimilarityBased])
        }
        3 => {
            m.multi_step = *pick(
                rng,
                &[MultiStep::None, MultiStep::SkeletonParsing, MultiStep::Decomposition],
            )
        }
        4 => m.intermediate = *pick(rng, &[Intermediate::None, Intermediate::NatSql]),
        _ => {
            m.post = *pick(
                rng,
                &[
                    PostProcessing::None,
                    PostProcessing::SelfCorrection,
                    PostProcessing::SelfConsistency,
                    PostProcessing::ExecutionGuided,
                    PostProcessing::Reranker,
                    PostProcessing::StaticRepair,
                ],
            )
        }
    }
}

fn swap_layers(a: &mut ModuleSet, b: &mut ModuleSet, p_swap: f64, rng: &mut StdRng) {
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.schema_linking, &mut b.schema_linking);
    }
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.db_content, &mut b.db_content);
    }
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.few_shot, &mut b.few_shot);
    }
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.multi_step, &mut b.multi_step);
    }
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.intermediate, &mut b.intermediate);
    }
    if rng.gen_bool(p_swap) {
        std::mem::swap(&mut a.post, &mut b.post);
    }
}

/// Evaluate every not-yet-cached individual of a population, fanning the
/// fitness evaluations out over `workers` claimers with [`fan_out`].
///
/// The search trajectory must not depend on the worker count, and composed
/// pipeline names salt the simulated models' prediction noise — so names
/// are assigned *before* the parallel fan-out, in the population's
/// first-occurrence order (`aas-{cache.len()+k}`), exactly the order one
/// worker composes them in. Results then enter the
/// cache in that same order, keeping `evaluations` and every subsequent
/// roulette draw identical at any worker count.
fn evaluate_pending(
    ctx: &EvalContext<'_>,
    backbone: &Backbone,
    cfg: &AasConfig,
    workers: usize,
    population: &[ModuleSet],
    cache: &mut HashMap<ModuleSet, f64>,
    evaluations: &mut usize,
) {
    let mut pending: Vec<ModuleSet> = Vec::new();
    for m in population {
        if !cache.contains_key(m) && !pending.contains(m) {
            pending.push(*m);
        }
    }
    let base = cache.len();
    let results = fan_out(pending.len(), workers, |k| {
        let model = compose(format!("aas-{}", base + k), backbone, pending[k]);
        ctx.fitness_ex(&model, cfg.fitness_samples)
    })
    .expect("composed pipelines run on every dataset");
    for (m, f) in pending.iter().zip(results) {
        cache.insert(*m, f);
        *evaluations += 1;
    }
}

/// Run the genetic search. Fitness = measured EX of the composed pipeline
/// over `cfg.fitness_samples` dev samples of `ctx`. Each generation's new
/// individuals are scored through [`fan_out`] with [`default_workers`]
/// claimers; the search trajectory is identical at any worker count.
pub fn search(ctx: &EvalContext<'_>, backbone: &Backbone, cfg: &AasConfig) -> AasResult {
    search_with_workers(ctx, backbone, cfg, default_workers())
}

/// [`search`] with an explicit fitness worker count.
pub fn search_with_workers(
    ctx: &EvalContext<'_>,
    backbone: &Backbone,
    cfg: &AasConfig,
    workers: usize,
) -> AasResult {
    assert!(cfg.population >= 2, "population must hold at least two individuals");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cache: HashMap<ModuleSet, f64> = HashMap::new();
    let mut evaluations = 0usize;

    let mut population: Vec<ModuleSet> =
        (0..cfg.population).map(|_| random_modules(&mut rng)).collect();
    let mut history = Vec::with_capacity(cfg.generations);
    let mut best = population[0];
    let mut best_fitness = f64::NEG_INFINITY;

    for generation in 0..cfg.generations {
        evaluate_pending(ctx, backbone, cfg, workers, &population, &mut cache, &mut evaluations);
        let scores: Vec<f64> = population.iter().map(|m| cache[m]).collect();

        // track the champion
        for (m, &f) in population.iter().zip(&scores) {
            if f > best_fitness {
                best_fitness = f;
                best = *m;
            }
        }
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        history.push(GenerationStats {
            generation,
            best: scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            mean,
            worst,
        });

        // Russian-roulette selection: drop the worst performer, then sample
        // parents proportional to fitness.
        let worst_idx = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty population");
        let pool: Vec<(ModuleSet, f64)> = population
            .iter()
            .zip(&scores)
            .enumerate()
            .filter(|(i, _)| *i != worst_idx)
            .map(|(_, (m, f))| (*m, f.max(1.0)))
            .collect();
        let total: f64 = pool.iter().map(|(_, f)| f).sum();
        let roulette = |rng: &mut StdRng| -> ModuleSet {
            let mut roll = rng.gen_range(0.0..total);
            for (m, f) in &pool {
                if roll < *f {
                    return *m;
                }
                roll -= f;
            }
            pool.last().expect("non-empty pool").0
        };

        // breed the next generation (elitism: keep the champion)
        let mut next = vec![best];
        while next.len() < cfg.population {
            let mut a = roulette(&mut rng);
            let mut b = roulette(&mut rng);
            swap_layers(&mut a, &mut b, cfg.p_swap, &mut rng);
            for child in [&mut a, &mut b] {
                for layer in 0..6 {
                    if rng.gen_bool(cfg.p_mutation) {
                        mutate_layer(child, layer, &mut rng);
                    }
                }
            }
            next.push(a);
            if next.len() < cfg.population {
                next.push(b);
            }
        }
        population = next;
    }

    // final evaluation pass over the last generation
    evaluate_pending(ctx, backbone, cfg, workers, &population, &mut cache, &mut evaluations);
    for m in &population {
        let f = cache[m];
        if f > best_fitness {
            best_fitness = f;
            best = *m;
        }
    }

    AasResult { best, best_fitness, history, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::gpt35;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};
    use modelzoo::modules::module_ex_bonus;

    fn ctx_corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(55))
    }

    #[test]
    fn search_is_deterministic() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let a = search(&ctx, &gpt35(), &AasConfig::tiny(3));
        let b = search(&ctx, &gpt35(), &AasConfig::tiny(3));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn search_improves_over_generations() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let r = search(&ctx, &gpt35(), &AasConfig::tiny(7));
        let first = r.history.first().unwrap().best;
        let last = r.history.last().unwrap().best;
        assert!(last >= first, "GA should not regress the champion");
        assert!(r.evaluations > 0);
    }

    #[test]
    fn found_configuration_has_helpful_modules() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let mut cfg = AasConfig::tiny(11);
        cfg.generations = 8;
        cfg.population = 8;
        let r = search(&ctx, &gpt35(), &cfg);
        // the winner should carry a meaningfully positive module bonus —
        // randomly-initialized bare pipelines lose to module-rich ones
        assert!(
            module_ex_bonus(&r.best) >= 2.0,
            "winner {:?} has bonus {}",
            r.best,
            module_ex_bonus(&r.best)
        );
    }

    #[test]
    fn history_length_matches_generations() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let cfg = AasConfig::tiny(1);
        let r = search(&ctx, &gpt35(), &cfg);
        assert_eq!(r.history.len(), cfg.generations);
        for w in r.history.windows(1) {
            assert!(w[0].worst <= w[0].best + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "population must hold at least two")]
    fn tiny_population_rejected() {
        let corpus = ctx_corpus();
        let ctx = EvalContext::new(&corpus);
        let mut cfg = AasConfig::tiny(1);
        cfg.population = 1;
        let _ = search(&ctx, &gpt35(), &cfg);
    }
}
