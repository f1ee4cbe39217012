//! Run arguments, the parts of set-up, and the corpora the workloads use.

use datagen::{Corpus, CorpusConfig, CorpusKind};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the command line asked of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Sample order, request draws, list offsets and the replay slice all
    /// derive from this (see [`CORPUS_SEED`] for what does not).
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Rounds an untraced run splits its measured time into; each sets
    /// up in full, and `setup_s` is their median.
    pub rounds: usize,
    /// Ops in the traced replay (a workload may use fewer).
    pub slice: usize,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Untimed lead-in before the window: a quarter of a second, less on
    /// short runs. Caches, connections and worker threads reach their
    /// steady state well within it.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 4.0).min(0.25))
    }

    /// `share` of the measured time, for the phases of a traced run.
    pub fn part(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload function is asked to do after setting up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One untraced round: a warm-up, then the measured window.
    Measure,
    /// The traced replay: per-layer metrics.
    Trace,
}

/// What it did.
#[derive(Debug)]
pub enum Outcome {
    /// The measured window of a [`Phase::Measure`] round.
    Round(crate::load::Window),
    /// The report of a [`Phase::Trace`] run.
    Traced(crate::report::Report),
}

/// Where set-up time went, before the first timed op, and what the
/// process held when it ended.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// `generate_corpus`.
    pub gen: Duration,
    /// `EvalContext::new` (gold executions, few-shot index, catalogs).
    pub context: Duration,
    /// Computing the expected outputs the run is checked against.
    pub reference: Duration,
    /// Service or cluster boot, until it accepts requests.
    pub boot: Duration,
    /// Peak resident set of the process as set-up ended, MiB.
    pub rss_mib: f64,
}

impl SetupTime {
    /// Set-up ends here: its parts, and the memory it left resident.
    pub fn ended(gen: Duration, context: Duration, reference: Duration, boot: Duration) -> Self {
        SetupTime { gen, context, reference, boot, rss_mib: crate::report::peak_rss_mib() }
    }

    /// All of it.
    pub fn total(&self) -> Duration {
        self.gen + self.context + self.reference + self.boot
    }
}

/// Time `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Seed of every generated corpus, and of `serve_zipf`'s popularity
/// order. Fixed: between corpus seeds the BIRD mix moves `sql_exec`
/// throughput, set-up time and resident memory by 30–50%, which would
/// drown the benchmark's bounds. `--seed` drives everything else: sample
/// order, request draws, where each caller starts in its list, which ops
/// the traced replay takes.
pub const CORPUS_SEED: u64 = 7;

/// The Spider-like corpus at full size: 1034 dev samples, and the 7000
/// training questions few-shot retrieval searches.
pub fn spider() -> (CorpusKind, CorpusConfig) {
    (CorpusKind::Spider, CorpusConfig::spider(CORPUS_SEED))
}

/// The BIRD-like corpus with its full dev split (1534 samples, 11
/// databases of 40–160-row tables). The training split is cut to 300
/// samples: nothing the BIRD workloads time reads it, and generating all
/// 3000 (each gold query is executed once) would triple set-up.
pub fn bird() -> (CorpusKind, CorpusConfig) {
    (CorpusKind::Bird, CorpusConfig { train_samples: 300, ..CorpusConfig::bird(CORPUS_SEED) })
}

/// `corpus` with only its first `dev_samples` dev samples. Generation is
/// sequential, so this is a prefix of the full dev split, and set-up does
/// not pay for gold executions nothing will evaluate.
pub fn dev_prefix(
    (kind, config): (CorpusKind, CorpusConfig),
    dev_samples: usize,
) -> (CorpusKind, CorpusConfig) {
    (kind, CorpusConfig { dev_samples, ..config })
}

/// Dev samples of the cluster corpus.
pub const CLUSTER_DEV_SAMPLES: usize = 1034;

/// The corpus cluster workers can regenerate from `(seed, dev_samples)`:
/// the tiny preset stretched to a Spider-sized dev split.
pub fn cluster() -> (CorpusKind, CorpusConfig) {
    let config =
        CorpusConfig { dev_samples: CLUSTER_DEV_SAMPLES, ..CorpusConfig::tiny(CORPUS_SEED) };
    (CorpusKind::Spider, config)
}

/// Generate a corpus, timed.
pub fn generate((kind, config): (CorpusKind, CorpusConfig)) -> (Corpus, Duration) {
    timed(|| datagen::generate_corpus(kind, &config))
}
