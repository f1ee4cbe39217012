//! The six workloads and the two kinds of run over them.

pub mod cluster_hop;
pub mod eval;
pub mod http_api;
pub mod serve_zipf;
pub mod sql_exec;

use crate::load::{self, Tail};
use crate::report::{peak_rss_mib, Metric, Report};
use crate::seeded::SplitMix64;
use crate::setup::{Args, Outcome, Phase, SetupTime};
use crate::stats;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    eval::FEWSHOT.name,
    eval::LIGHT.name,
    serve_zipf::NAME,
    http_api::NAME,
    cluster_hop::NAME,
    sql_exec::NAME,
];

/// Set `workload` up and do what `phase` asks; `None` for an unknown name.
fn run(workload: &str, args: &Args, phase: Phase) -> Option<(SetupTime, Outcome)> {
    Some(match workload {
        "eval_fewshot" => eval::run(&eval::FEWSHOT, args, phase),
        "eval_light" => eval::run(&eval::LIGHT, args, phase),
        serve_zipf::NAME => serve_zipf::run(args, phase),
        http_api::NAME => http_api::run(args, phase),
        cluster_hop::NAME => cluster_hop::run(args, phase),
        sql_exec::NAME => sql_exec::run(args, phase),
        _ => return None,
    })
}

/// The percentile `workload` reports as `tail_ms`.
fn tail_of(workload: &str) -> Tail {
    match workload {
        "eval_fewshot" | "eval_light" => Tail::Median,
        http_api::NAME => Tail::P95,
        _ => Tail::P99,
    }
}

/// An untraced run: `args.rounds` rounds, each a full set-up, a warm-up
/// and an equal share of the measured time, with an op order of its own
/// drawn from the seed. Rounds spread the measurement over the whole run
/// (this shared machine's speed steps by 20-35% for seconds to tens of
/// seconds at a time) and give `setup_s` its several samples. Reports
/// every end-to-end metric.
pub fn measure(workload: &str, args: &Args) -> Option<Report> {
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    for round in 0..args.rounds {
        let round_args = Args {
            seed: SplitMix64::new(args.seed, 1000 + round as u64).next_u64(),
            seconds: args.seconds / args.rounds as f64,
            ..args.clone()
        };
        let (setup, outcome) = run(workload, &round_args, Phase::Measure)?;
        let Outcome::Round(window) = outcome else {
            unreachable!("a measured round yields a window")
        };
        eprintln!(
            "{workload} round {round}: set-up gen {:?} context {:?} reference {:?} boot {:?}; {} ops, \
             bursts {:.0?}/s, cpu {:?} of {:?}",
            setup.gen,
            setup.context,
            setup.reference,
            setup.boot,
            window.attempted,
            window.machine.bursts,
            window.machine.cpu,
            window.machine.wall
        );
        setups.push(setup);
        windows.push(window);
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    let (mut metrics, beside) = load::summarize(&windows, tail_of(workload));
    metrics.push(Metric {
        name: "setup_s",
        value: stats::median(&setup_s),
        unit: "s",
        samples: setup_s.len() as u64,
    });
    // The first round's: the process's peak never falls, so later set-ups
    // read what the rounds before them left behind. Memory is taken here
    // and not after the window because with worker threads running the
    // peak depends on which malloc arena each thread lands in: identical
    // runs differed by 20-40%.
    metrics.push(Metric {
        name: "setup_rss_mb",
        value: setups[0].rss_mib,
        unit: "MiB",
        samples: 1,
    });
    eprintln!("{workload}: peak resident set at exit {:.1} MiB", peak_rss_mib());
    Some(Report {
        attempted: windows.iter().map(|w| w.attempted).sum(),
        failed: windows.iter().map(|w| w.failed).sum(),
        invariants_held: windows.iter().all(|w| w.invariants_held),
        metrics,
        beside,
    })
}

/// A traced run: one set-up, then the replay. Reports every per-layer
/// metric and writes `trace-<workload>.jsonl`.
pub fn trace(workload: &str, args: &Args) -> Option<Report> {
    let (_, outcome) = run(workload, args, Phase::Trace)?;
    let Outcome::Traced(report) = outcome else { unreachable!("a traced run yields a report") };
    Some(report)
}
