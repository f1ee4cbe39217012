//! How fast the machine ran while a window was measured.
//!
//! The benchmark's box is a small guest on a shared host whose speed
//! steps between two states, 20–35% apart, each lasting from seconds to
//! many minutes: of ten runs some land in one state and some in the
//! other, and their spread is the gap between the states whatever a run
//! does inside its own twenty seconds. So every window times a fixed
//! kernel — allocation, hashing and sorting, none of the repo's code — on
//! every core before each of its one-second segments (or passes) and
//! after the last, and the run reports its timings at the reference speed:
//!
//! - `k` = [`REFERENCE_RATE`] ÷ the median burst rate: how many times
//!   slower than the reference the machine ran;
//! - `u` = the process's CPU time ÷ (wall time × cores) over the windows:
//!   the share of the time that scales with `k` — waiting on a timer or
//!   the accept poll does not;
//! - a latency measured as `t` is reported as `t × (1 − u + u / k)`, a
//!   rate `r` as `r ÷ (1 − u + u / k)`.
//!
//! Between the two states the kernel's rate follows a CPU-bound
//! workload's with a correlation of 0.93 (run level). Over ten runs on ten
//! seeds the reported timings spread (interquartile range over median) by
//! 0.02–0.08 where the raw ones spread by 0.09–0.17; `http_api`, whose
//! latency is a sleep, is left as it was (0.002). The raw values, `k` and
//! `u` are printed beside the reported ones.

use crate::load::nproc;
use crate::stats;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Kernel iterations per second and core in this box's fast state. Only a
/// scale: it makes reported and raw values agree when the machine is
/// undisturbed.
pub const REFERENCE_RATE: f64 = 19_000.0;

/// Length of one burst, after [`LEAD_IN`].
const BURST: Duration = Duration::from_millis(100);

/// Untimed start of a burst: a core that idled through a segment (the
/// accept poll, a reply awaited) takes a while to run at speed again.
const LEAD_IN: Duration = Duration::from_millis(30);

/// One iteration: a few hundred small allocations, hashed, gathered and
/// sorted. Touches the allocator, the caches and the branch predictor the
/// way the measured code does, in about 50 µs.
fn kernel(round: u64) -> u64 {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..400u64 {
        map.entry(format!("k{}", (i + round) % 97))
            .or_default()
            .push(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    let mut all: Vec<u64> = map.values().flatten().copied().collect();
    all.sort_unstable();
    all[all.len() / 2]
}

/// Run the kernel on this thread for [`LEAD_IN`] and then [`BURST`]; the
/// burst's rate, iterations per second. Closed-loop callers call this
/// together, one per core.
pub fn spin() -> f64 {
    let mut sink = 0u64;
    let mut run = |length: Duration| {
        let started = Instant::now();
        let mut done = 0u64;
        while started.elapsed() < length {
            sink = sink.wrapping_add(kernel(done));
            done += 1;
        }
        done as f64 / started.elapsed().as_secs_f64()
    };
    run(LEAD_IN);
    let rate = run(BURST);
    std::hint::black_box(sink);
    rate
}

/// [`spin`] on a fresh thread per core at once; the mean rate per core.
/// For a workload whose own threads live inside the call it times.
pub fn burst() -> f64 {
    let cores = nproc();
    let rates: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores).map(|_| scope.spawn(spin)).collect();
        handles.into_iter().map(|h| h.join().expect("the kernel does not panic")).sum()
    });
    rates / cores as f64
}

/// CPU time of this process so far, all threads (`utime + stime` of
/// `/proc/self/stat`, in its fixed 100 Hz ticks).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name may hold spaces; fields are counted after its `)`
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// What was seen around one window's segments (or passes).
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// Burst rates per core: before every segment and after the last.
    pub bursts: Vec<f64>,
    /// CPU time the process spent inside the segments.
    pub cpu: Duration,
    /// Wall time of the segments.
    pub wall: Duration,
}

/// The machine over a whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Times slower than the reference (`k`).
    pub slowdown: f64,
    /// Share of the windows spent on a CPU (`u`).
    pub cpu_share: f64,
}

impl Machine {
    /// From every round's observation.
    pub fn over<'a>(rounds: impl Iterator<Item = &'a Observed> + Clone) -> Machine {
        let bursts: Vec<f64> = rounds.clone().flat_map(|o| o.bursts.iter().copied()).collect();
        let cpu: f64 = rounds.clone().map(|o| o.cpu.as_secs_f64()).sum();
        let wall: f64 = rounds.map(|o| o.wall.as_secs_f64()).sum();
        Machine {
            slowdown: REFERENCE_RATE / stats::median(&bursts),
            cpu_share: (cpu / (wall * nproc() as f64)).clamp(0.0, 1.0),
        }
    }

    /// What a time measured on this machine is multiplied by to read as
    /// at reference speed (a rate is divided by it).
    pub fn time_factor(&self) -> f64 {
        1.0 - self.cpu_share + self.cpu_share / self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_on_cpu_share_is_scaled() {
        // twice as slow, fully CPU-bound: times halve
        assert_eq!(Machine { slowdown: 2.0, cpu_share: 1.0 }.time_factor(), 0.5);
        // waiting on a timer: untouched
        assert_eq!(Machine { slowdown: 2.0, cpu_share: 0.0 }.time_factor(), 1.0);
        // half and half
        assert_eq!(Machine { slowdown: 2.0, cpu_share: 0.5 }.time_factor(), 0.75);
        // at reference speed nothing changes
        assert_eq!(Machine { slowdown: 1.0, cpu_share: 0.7 }.time_factor(), 1.0);
    }

    #[test]
    fn a_run_takes_the_median_burst_and_the_pooled_cpu_share() {
        let seen = |bursts: [f64; 2], cpu_ms, wall_ms| Observed {
            bursts: bursts.to_vec(),
            cpu: Duration::from_millis(cpu_ms),
            wall: Duration::from_millis(wall_ms),
        };
        let rounds = [
            seen([REFERENCE_RATE / 2.0, REFERENCE_RATE / 2.0], 1000, 1000),
            seen([REFERENCE_RATE / 2.0, REFERENCE_RATE], 1000, 1000),
        ];
        let m = Machine::over(rounds.iter());
        assert_eq!(m.slowdown, 2.0);
        assert!((m.cpu_share - 1.0 / nproc() as f64).abs() < 1e-12);
    }

    #[test]
    fn a_burst_has_a_rate_and_costs_cpu_time() {
        let before = cpu_time();
        let rate = burst();
        assert!(rate > 100.0 && rate < 1e7, "{rate}");
        let cpu = cpu_time() - before;
        assert!(cpu >= BURST / 2 && cpu <= (LEAD_IN + BURST) * (nproc() as u32 + 1), "{cpu:?}");
    }
}
