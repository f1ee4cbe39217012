//! Recorder behavior tests. These exercise the process-global recorder,
//! so every test serializes on one lock and resets state around itself;
//! they live in their own integration-test binary to stay isolated from
//! other test processes.

use std::sync::Mutex;
use std::time::{Duration, Instant};

static GLOBAL: Mutex<()> = Mutex::new(());

fn with_recorder<R>(f: impl FnOnce() -> R) -> R {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    let _on = obs::enable();
    let r = f();
    obs::reset();
    r
}

#[test]
fn raii_spans_nest_and_record() {
    let snap = with_recorder(|| {
        {
            let _outer = obs::span("outer");
            {
                let _inner = obs::span("inner");
            }
        }
        obs::snapshot()
    });
    let names: Vec<_> = snap.events.iter().map(|e| e.name).collect();
    assert!(names.contains(&"outer"));
    assert!(names.contains(&"inner"));
    let outer = snap.events.iter().find(|e| e.name == "outer").unwrap();
    let inner = snap.events.iter().find(|e| e.name == "inner").unwrap();
    // inner is contained in outer on the same thread
    assert_eq!(outer.tid, inner.tid);
    assert!(inner.start_us >= outer.start_us);
    assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
}

#[test]
fn counters_and_histograms_accumulate() {
    let snap = with_recorder(|| {
        obs::count("hits", 2);
        obs::count("hits", 3);
        obs::count("zero", 0); // no-op, must not create the counter
        obs::observe("latency", 100);
        obs::observe("latency", 100_000);
        obs::observe_duration("latency", Duration::from_micros(7));
        obs::snapshot()
    });
    assert_eq!(snap.counter("hits"), 5);
    assert!(!snap.counters.contains_key("zero"));
    let h = &snap.histograms["latency"];
    assert_eq!(h.count, 3);
    assert_eq!(h.sum, 100_107);
    assert!(h.quantile(0.5).unwrap() >= 100);
}

#[test]
fn spans_sample_enablement_at_entry() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    // started while disabled -> inert even if enabled before drop
    obs::set_enabled(false);
    let off_span = obs::span("started-off");
    let _on = obs::enable();
    drop(off_span);
    // started while enabled -> recorded even if disabled before drop
    let on_span = obs::span("started-on");
    obs::set_enabled(false);
    drop(on_span);
    obs::set_enabled(true);
    let snap = obs::snapshot();
    drop(_on);
    obs::reset();
    let names: Vec<_> = snap.events.iter().map(|e| e.name).collect();
    assert!(!names.contains(&"started-off"));
    assert!(names.contains(&"started-on"));
}

#[test]
fn disabled_recorder_records_nothing_and_is_cheap() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_enabled(false);
    obs::count("c", 1);
    obs::observe("h", 1);
    {
        let _s = obs::span("s");
    }
    let snap = obs::snapshot();
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());

    // Cheap: 1M disabled span+counter pairs. The budget is deliberately
    // enormous (500ns per op) — this guards against accidental locking on
    // the disabled path, not against scheduler noise.
    let iters = 1_000_000u64;
    let started = Instant::now();
    for i in 0..iters {
        let _s = obs::span("disabled");
        obs::count("disabled", i & 1);
    }
    let per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    assert!(per_op < 500.0, "disabled-path span+count cost {per_op:.1}ns/op");
}

#[test]
fn reset_clears_everything() {
    let snap = with_recorder(|| {
        obs::count("c", 1);
        {
            let _s = obs::span("s");
        }
        obs::reset();
        obs::snapshot()
    });
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
}

#[test]
fn multithreaded_spans_get_distinct_tids() {
    let snap = with_recorder(|| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = obs::span("worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        obs::snapshot()
    });
    let worker_events: Vec<_> = snap.events.iter().filter(|e| e.name == "worker").collect();
    assert_eq!(worker_events.len(), 3);
    let mut tids: Vec<_> = worker_events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 3, "each thread gets its own tid");
}
