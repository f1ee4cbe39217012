//! The closed-loop load generator and the end-to-end summary of a run.
//!
//! Closed loop: each caller issues its next op only after the previous
//! one returned — that is how `ServiceHandle::query`,
//! `ClusterClient::query`, `http_post` and `evaluate_with` are used.
//! Callers never outnumber cores.

use crate::machine::{self, Machine, Observed};
use crate::report::Metric;
use crate::seeded::SplitMix64;
use crate::stats;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Length of one throughput segment, about: a window is cut into equal ones.
pub const SEGMENT: Duration = Duration::from_secs(1);

/// Load-generator threads: one per core, two at most.
pub fn callers() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where caller `caller` starts cycling a list of `len` ops: a seeded
/// offset, the callers spread evenly from there.
pub fn start_of(seed: u64, caller: usize, len: usize) -> usize {
    SplitMix64::new(seed, 3).below(len) + caller * len / callers()
}

/// What a measured window observed.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Caller-side latency of every op; of every pass, for a batch workload.
    pub latency_ns: Vec<u64>,
    /// Ops completed per second, one value per segment (per pass).
    pub rates: Vec<f64>,
    /// Ops started inside the window.
    pub attempted: u64,
    /// ... that errored, were refused, or failed their correctness check.
    pub failed: u64,
    /// Every invariant outside single ops held too (e.g. nothing requeued).
    pub invariants_held: bool,
    /// How fast the machine ran meanwhile.
    pub machine: Observed,
}

impl Window {
    /// A batch workload's window: each pass completes `ops_per_pass` ops
    /// at once, so latency and rate are taken per pass. `wrong_passes`
    /// passes failed their check.
    pub fn from_passes(
        pass_ns: Vec<u64>,
        ops_per_pass: u64,
        wrong_passes: u64,
        machine: Observed,
    ) -> Window {
        Window {
            rates: pass_ns.iter().map(|&ns| ops_per_pass as f64 * 1e9 / ns as f64).collect(),
            attempted: pass_ns.len() as u64 * ops_per_pass,
            failed: wrong_passes * ops_per_pass,
            invariants_held: true,
            latency_ns: pass_ns,
            machine,
        }
    }
}

/// What one caller saw.
#[derive(Default)]
struct Caller {
    latency_ns: Vec<u64>,
    /// Per segment: ops completed, and the time they took.
    segments: Vec<(u64, Duration)>,
    failed: u64,
    bursts: Vec<f64>,
    cpu: Duration,
}

/// Drive `threads` closed-loop callers: `warmup` untimed, then `window`
/// measured in segments of about [`SEGMENT`]. `init` builds one caller's
/// state (a connection, a random stream); `op` issues one operation,
/// timing the call itself, and says whether its reply was correct.
///
/// Before every segment and after the last the callers stop together and
/// time the machine's kernel themselves ([`machine::spin`]), so the speed
/// of the machine is sampled every second, on the cores and at the
/// moments the ops ran. A segment ends for a caller when the op it has in
/// flight returns; its rate is ops over the time they took.
///
/// Callers' states are built here, before any thread starts: a caller
/// that cannot connect fails the run instead of leaving the others
/// waiting for it. The window comes back with `invariants_held` set.
pub fn closed_loop<S: Send>(
    threads: usize,
    warmup: Duration,
    window: Duration,
    init: impl Fn(usize) -> S,
    op: impl Fn(&mut S) -> (Duration, bool) + Sync,
) -> Window {
    let segments = ((window.as_secs_f64() / SEGMENT.as_secs_f64()).round() as u32).max(1);
    let segment = window / segments;
    let together = Barrier::new(threads);
    let states: Vec<S> = (0..threads).map(init).collect();
    let callers: Vec<Caller> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (op, together) = (&op, &together);
                scope.spawn(move || {
                    let mut seen = Caller::default();
                    let started = Instant::now();
                    while started.elapsed() < warmup {
                        op(&mut state);
                    }
                    for _ in 0..segments {
                        together.wait();
                        seen.bursts.push(machine::spin());
                        together.wait();
                        let (cpu, started) = (machine::cpu_time(), Instant::now());
                        let mut done = 0;
                        while started.elapsed() < segment {
                            let (latency, ok) = op(&mut state);
                            seen.latency_ns.push(latency.as_nanos() as u64);
                            seen.failed += u64::from(!ok);
                            done += 1;
                        }
                        seen.segments.push((done, started.elapsed()));
                        seen.cpu += machine::cpu_time() - cpu;
                    }
                    together.wait();
                    seen.bursts.push(machine::spin());
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    // the process's CPU time as the first caller read it, against the
    // wall time of the same segments
    let machine = Observed {
        bursts: (0..=segments as usize)
            .map(|i| callers.iter().map(|c| c.bursts[i]).sum::<f64>() / threads as f64)
            .collect(),
        cpu: callers[0].cpu,
        wall: callers[0].segments.iter().map(|&(_, took)| took).sum(),
    };
    let rates = (0..segments as usize)
        .map(|i| {
            callers.iter().map(|c| c.segments[i].0 as f64 / c.segments[i].1.as_secs_f64()).sum()
        })
        .collect();
    let mut all = Window { rates, machine, invariants_held: true, ..Window::default() };
    for c in callers {
        all.latency_ns.extend(c.latency_ns);
        all.failed += c.failed;
    }
    all.attempted = all.latency_ns.len() as u64;
    all
}

/// Which percentile a workload reports as `tail_ms`. Fixed per workload
/// — the highest that keeps ten samples beyond it at the benchmark's run
/// length — so it cannot flip between runs as the sample count wobbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Thousands of ops per run.
    P99,
    /// About a thousand ops per run.
    P95,
    /// About ten passes per run: nothing above the median has ten samples
    /// beyond it, so `tail_ms` repeats `p50_ms` (every run must report
    /// every metric).
    Median,
}

impl Tail {
    /// The percentile, 1..=100.
    pub fn pct(self) -> usize {
        match self {
            Tail::P99 => 99,
            Tail::P95 => 95,
            Tail::Median => 50,
        }
    }
}

/// `ops_per_s`, `p50_ms`, `tail_ms` of a run, at reference machine speed
/// (see [`crate::machine`]): the median segment (or pass) rate, and
/// percentiles over the ops (or passes) of every round pooled. Second,
/// what a reader wants beside them: the same three as measured, and the
/// machine's slowdown and the CPU share they were scaled with.
pub fn summarize(rounds: &[Window], tail: Tail) -> (Vec<Metric>, Vec<Metric>) {
    let rates: Vec<f64> = rounds.iter().flat_map(|w| w.rates.iter().copied()).collect();
    let mut sorted: Vec<u64> = rounds.iter().flat_map(|w| w.latency_ns.iter().copied()).collect();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    if tail != Tail::Median && stats::samples_beyond(sorted.len(), tail.pct()) < stats::MIN_BEYOND {
        eprintln!("warning: only {n} samples, too few for a steady p{}", tail.pct());
    }
    let machine = Machine::over(rounds.iter().map(|w| &w.machine));
    let factor = machine.time_factor();
    let rate = stats::median(&rates);
    let ms = |pct| stats::percentile(&sorted, pct) as f64 / 1e6;
    let segments = rates.len() as u64;
    let bursts = rounds.iter().map(|w| w.machine.bursts.len() as u64).sum();
    let reported = vec![
        Metric { name: "ops_per_s", value: rate / factor, unit: "1/s", samples: segments },
        Metric { name: "p50_ms", value: ms(50) * factor, unit: "ms", samples: n },
        Metric { name: "tail_ms", value: ms(tail.pct()) * factor, unit: "ms", samples: n },
    ];
    let beside = vec![
        Metric { name: "raw.ops_per_s", value: rate, unit: "1/s", samples: segments },
        Metric { name: "raw.p50_ms", value: ms(50), unit: "ms", samples: n },
        Metric { name: "raw.tail_ms", value: ms(tail.pct()), unit: "ms", samples: n },
        Metric {
            name: "machine.slowdown",
            value: machine.slowdown,
            unit: "ratio",
            samples: bursts,
        },
        Metric {
            name: "machine.cpu_share",
            value: machine.cpu_share,
            unit: "fraction",
            samples: bursts,
        },
    ];
    (reported, beside)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::REFERENCE_RATE;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A machine at reference speed: reported values equal the raw ones.
    fn at_reference() -> Observed {
        Observed {
            bursts: vec![REFERENCE_RATE; 2],
            cpu: Duration::from_secs(1),
            wall: Duration::from_secs(1),
        }
    }

    #[test]
    fn closed_loop_discards_warmup_counts_failures_and_samples_the_machine() {
        let issued = AtomicU64::new(0);
        let samples = closed_loop(
            2,
            Duration::from_millis(20),
            Duration::from_millis(60),
            |t| t as u64,
            |thread| {
                issued.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
                // thread 1 fails every op it issues
                (Duration::from_millis(2), *thread == 0)
            },
        );
        let n = samples.latency_ns.len() as u64;
        assert!(n < issued.load(Ordering::Relaxed), "warm-up ops must not be recorded");
        assert!(n >= 20, "two callers at 2ms over 60ms: {n}");
        assert!(samples.failed > 0 && samples.failed < n, "{} of {n}", samples.failed);
        assert!(samples.latency_ns.iter().all(|&ns| ns == 2_000_000));
        // a window shorter than a segment is one segment, between two bursts
        assert_eq!((samples.rates.len(), samples.machine.bursts.len()), (1, 2));
        assert!(samples.rates[0] > 300.0 && samples.rates[0] < 1000.0, "{:?}", samples.rates);
        assert!(samples.machine.wall >= Duration::from_millis(60));
    }

    #[test]
    fn a_window_is_cut_into_whole_segments() {
        let samples = closed_loop(
            1,
            Duration::ZERO,
            SEGMENT * 2 + SEGMENT / 4,
            |_| (),
            |_| {
                std::thread::sleep(Duration::from_millis(50));
                (Duration::from_millis(50), true)
            },
        );
        assert_eq!((samples.rates.len(), samples.machine.bursts.len()), (2, 3));
        assert!(samples.rates.iter().all(|&r| r > 15.0 && r <= 20.0), "{:?}", samples.rates);
    }

    #[test]
    fn pass_windows_take_the_median_pass_over_all_rounds() {
        // 100 ops per pass at 1s, 4s | 2s -> 100, 25 | 50 ops/s
        let rounds = [
            Window::from_passes(vec![1_000_000_000, 4_000_000_000], 100, 0, at_reference()),
            Window::from_passes(vec![2_000_000_000], 100, 1, at_reference()),
        ];
        assert_eq!((rounds[0].attempted, rounds[0].failed), (200, 0));
        assert_eq!((rounds[1].attempted, rounds[1].failed), (100, 100));
        let (m, _) = summarize(&rounds, Tail::Median);
        assert_eq!((m[0].name, m[0].value, m[0].samples), ("ops_per_s", 50.0, 3));
        assert_eq!((m[1].name, m[1].value), ("p50_ms", 2000.0));
        assert_eq!(m[2].value, m[1].value);
    }

    #[test]
    fn closed_loop_windows_pool_their_ops_and_segments() {
        let round = |per_segment: u64| Window {
            latency_ns: (1..=2 * per_segment).map(|i| i * 1_000).collect(),
            rates: vec![per_segment as f64; 2],
            machine: at_reference(),
            ..Window::default()
        };
        // two rounds of two segments: 500, 500 | 100, 100 completions
        let rounds = [round(500), round(100)];
        assert_eq!(rounds[0].rates.len(), 2);
        let (m, _) = summarize(&rounds, Tail::P95);
        assert_eq!((m[0].value, m[0].samples), (300.0, 4));
        assert_eq!(m[1].samples, 1200);
        assert_eq!(m[2].value, 0.94); // the 1140th of 1200 pooled latencies
    }

    #[test]
    fn a_slow_machine_is_scaled_out_of_the_on_cpu_share() {
        // twice as slow as the reference, all cores busy throughout
        let slow = Observed {
            bursts: vec![REFERENCE_RATE / 2.0; 2],
            cpu: Duration::from_secs(nproc() as u64),
            wall: Duration::from_secs(1),
        };
        let rounds = [Window::from_passes(vec![2_000_000_000], 100, 0, slow)];
        let (m, beside) = summarize(&rounds, Tail::Median);
        assert_eq!((m[0].value, m[1].value), (100.0, 1000.0));
        assert_eq!((beside[0].name, beside[0].value), ("raw.ops_per_s", 50.0));
        assert_eq!((beside[1].name, beside[1].value), ("raw.p50_ms", 2000.0));
        assert_eq!((beside[3].name, beside[3].value), ("machine.slowdown", 2.0));
        assert_eq!((beside[4].name, beside[4].value), ("machine.cpu_share", 1.0));
    }
}
