//! `sql_exec`: SQL text straight into the database engine.
//!
//! Closed-loop threads cycle every BIRD dev gold query through
//! `Database::run` against its own database. Only `sqlkit::parser` and
//! `minidb` run: no model, no service, no cache. Most of the mix takes the
//! vectorized path and sets the median; the queries `compile` declines run
//! on the AST interpreter and set the tail and the throughput.

use crate::layers::Layers;
use crate::load::{self, Window};
use crate::report::Report;
use crate::seeded::SplitMix64;
use crate::setup::{self, timed, Args, Outcome, Phase, SetupTime};
use crate::stages::{names, run_text_staged, ExecProfile};
use crate::trace::{Node, Recorder};
use datagen::{Corpus, CorpusKind};
use minidb::ResultSet;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "sql_exec";

/// One timed `Database::run` of dev query `i`, checked against the
/// interpreter's row count and work units (every row was compared once,
/// in set-up).
fn run_text(corpus: &Corpus, reference: &[ResultSet], i: usize) -> (Duration, bool) {
    let sample = &corpus.dev[i];
    let (result, took) = timed(|| corpus.db(sample).database.run(&sample.sql));
    let expect = &reference[i];
    let ok = result.is_ok_and(|rs| rs.rows.len() == expect.rows.len() && rs.work == expect.work);
    (took, ok)
}

/// Set up, then do what `phase` asks.
pub fn run(args: &Args, phase: Phase) -> (SetupTime, Outcome) {
    let (corpus, gen) = setup::generate(setup::bird());
    // The reference is the AST interpreter on the parsed gold query; the
    // text path must return the same rows, order flag and work units.
    let ((reference, mismatched), reference_took) = timed(|| {
        let mut mismatched = 0u64;
        let reference: Vec<ResultSet> = corpus
            .dev
            .iter()
            .map(|s| {
                let db = &corpus.db(s).database;
                let expect = minidb::exec::execute(db, &s.query)
                    .unwrap_or_else(|e| panic!("gold `{}` fails on the interpreter: {e}", s.sql));
                mismatched += u64::from(db.run(&s.sql).as_ref() != Ok(&expect));
                expect
            })
            .collect();
        (reference, mismatched)
    });
    let setup = SetupTime::ended(gen, Duration::ZERO, reference_took, Duration::ZERO);
    let len = corpus.dev.len();

    let outcome = match phase {
        Phase::Measure => {
            let window = load::closed_loop(
                load::callers(),
                args.warmup(),
                args.window(),
                |caller| load::start_of(args.seed, caller, len),
                |next| {
                    let outcome = run_text(&corpus, &reference, *next % len);
                    *next += 1;
                    outcome
                },
            );
            Outcome::Round(Window { invariants_held: mismatched == 0, ..window })
        }
        Phase::Trace => {
            let mut layers = Layers::new();
            layers.setup(CorpusKind::Bird, &setup);
            let start = SplitMix64::new(args.seed, 100).below(len);
            let slice: Vec<usize> = (0..args.slice).map(|k| (start + k) % len).collect();
            let (mut attempted, mut failed) = (0, 0);
            let mut rec = Recorder::new();
            let mut whole_call = |traced: bool| -> Vec<u64> {
                let epoch = Instant::now();
                let now = || epoch.elapsed().as_nanos() as u64;
                slice
                    .iter()
                    .map(|&i| {
                        let op_start = now();
                        let (took, ok) = run_text(&corpus, &reference, i);
                        let call_end = now();
                        attempted += 1;
                        failed += u64::from(!ok);
                        let took = took.as_nanos() as u64;
                        if traced {
                            let s = &corpus.dev[i];
                            let mut stages = Vec::new();
                            let _ = run_text_staged(&corpus.db(s).database, &s.sql, &mut stages);
                            let whole =
                                Node::in_place(names::DB_RUN, call_end - took, call_end, stages);
                            rec.op(op_start, call_end, &[whole]);
                        }
                        took
                    })
                    .collect()
            };
            whole_call(false);
            let untraced = whole_call(false);
            let traced = whole_call(true);
            layers.trace_overhead(&untraced, &traced);
            layers.spans(NAME, &rec, &args.out_dir).expect("trace file is writable");

            // exact counts over the whole list the workload cycles
            let mut profile = ExecProfile::default();
            for s in &corpus.dev {
                let _ = profile.run(&corpus.db(s).database, &s.query, &mut Vec::new());
            }
            layers.exec_profile(&profile);
            Outcome::Traced(Report {
                attempted,
                failed,
                invariants_held: mismatched == 0,
                metrics: layers.into_metrics(),
                beside: Vec::new(),
            })
        }
    };
    (setup, outcome)
}
