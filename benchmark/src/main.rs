//! ```text
//! nl2sql-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! nl2sql-benchmark [--seed N] [--workload NAME] [--quick] [--repeat K]
//! ```
//!
//! With `--trace` this is one run of one workload: it prints every metric
//! as `workload metric value unit n=<samples>` and, last, the result
//! object the driver reads. Without it, it is the suite: every workload
//! of `BENCHMARK.json`, untraced then traced, as child runs.

use nl2sql_benchmark::report::Report;
use nl2sql_benchmark::setup::Args;
use nl2sql_benchmark::suite::{self, SuiteArgs};
use nl2sql_benchmark::workloads;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n       \
                     run.sh [--seed N] [--workload NAME] [--quick] [--repeat K]";

/// Default seed of the suite.
const DEFAULT_SEED: u64 = 7;

/// Ops in a full traced replay, and in a `--quick` one.
const SLICE: usize = 512;
const QUICK_SLICE: usize = 64;

/// Rounds of an untraced run, each with a set-up of its own.
const ROUNDS: usize = 3;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--quick" => cli.quick = true,
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                cli.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                });
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = Some(v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| bad(v))?);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(cli)
}

fn print_metrics(workload: &str, report: &Report) {
    for m in report.metrics.iter().chain(&report.beside) {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("{workload} fail_share {share} fraction n={}", report.attempted);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("benchmark/out");

    let Some(traced) = cli.trace else {
        let args = SuiteArgs {
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            workload: cli.workload,
            quick: cli.quick,
            repeat: cli.repeat.unwrap_or(1),
        };
        return match suite::run(&args, &out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    };

    let (Some(workload), Some(seed), Some(seconds)) = (cli.workload, cli.seed, cli.seconds) else {
        eprintln!("a single run needs --workload, --seed and --seconds\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args {
        seed,
        seconds,
        rounds: if cli.quick { 1 } else { ROUNDS },
        slice: if cli.quick { QUICK_SLICE } else { SLICE },
        out_dir,
    };
    let report = if traced {
        workloads::trace(&workload, &args)
    } else {
        workloads::measure(&workload, &args)
    };
    let Some(report) = report else {
        eprintln!("unknown workload: {workload} (known: {})", workloads::NAMES.join(", "));
        return ExitCode::from(2);
    };
    print_metrics(&workload, &report);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{workload}: {} of {} ops failed their check", report.failed, report.attempted);
        ExitCode::FAILURE
    }
}
