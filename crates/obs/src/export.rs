//! Snapshot export: chrome `trace_event` JSON and a text flame summary.
//!
//! The JSON output is the "JSON Array Format" variant of the trace-event
//! spec wrapped in an object (`{"traceEvents": [...]}`), which both
//! `chrome://tracing` and Perfetto load directly. Spans become complete
//! (`"ph": "X"`) events; counters become one counter (`"ph": "C"`) event
//! each so they show up as named tracks.

use crate::{Snapshot, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a snapshot as chrome trace-event JSON: one lane (`pid:1`),
/// one track per recorder thread.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let spans = snap.events.iter().map(|ev| {
        format!(
            "{{\"name\":{},\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json_string(ev.name),
            ev.start_us,
            ev.dur_us,
            ev.tid
        )
    });
    let counters = snap.counters.iter().map(|(name, value)| {
        format!(
            "{{\"name\":{},\"cat\":\"obs\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{{\"value\":{}}}}}",
            json_string(name),
            value
        )
    });
    let events: Vec<String> = spans.chain(counters).collect();
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n", events.join(",\n"))
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Default, Clone)]
struct NameStat {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// Aggregate per-name span stats with self-time attribution.
///
/// Within each thread, events sorted by (start, longest-first) make every
/// parent precede its children; a running stack of open intervals then
/// assigns each span's duration to itself and subtracts it from the
/// nearest enclosing span's self time.
fn aggregate(events: &[SpanEvent]) -> BTreeMap<&'static str, NameStat> {
    let mut stats: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    // (end_us, name) stack of currently open spans; events arrive sorted
    // by (tid, start, Reverse(dur)) from Snapshot.
    let mut stack: Vec<(u64, &'static str)> = Vec::new();
    let mut cur_tid = None;
    for ev in events {
        if cur_tid != Some(ev.tid) {
            stack.clear();
            cur_tid = Some(ev.tid);
        }
        let end = ev.start_us.saturating_add(ev.dur_us);
        while let Some(&(top_end, _)) = stack.last() {
            if top_end <= ev.start_us {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, parent)) = stack.last() {
            let p = stats.entry(parent).or_default();
            p.self_us = p.self_us.saturating_sub(ev.dur_us);
        }
        let s = stats.entry(ev.name).or_default();
        s.count += 1;
        s.total_us += ev.dur_us;
        s.self_us += ev.dur_us;
        stack.push((end, ev.name));
    }
    stats
}

/// Render a human-readable summary: spans ranked by total time with
/// self-time attribution, then counters, then histogram quantiles.
pub fn flame_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    let stats = aggregate(&snap.events);
    let mut ranked: Vec<(&&str, &NameStat)> = stats.iter().collect();
    ranked.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));

    if !ranked.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12} {:>12} {:>10}",
            "span", "count", "total_us", "self_us", "mean_us"
        );
        for (name, s) in &ranked {
            let mean = if s.count == 0 { 0.0 } else { s.total_us as f64 / s.count as f64 };
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>12} {:>12} {:>10.1}",
                name, s.count, s.total_us, s.self_us, mean
            );
        }
    }
    if snap.dropped_events > 0 {
        let _ = writeln!(out, "(dropped {} span events at buffer cap)", snap.dropped_events);
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "\n{:<48} {:>12}", "counter", "value");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "{:<48} {:>12}", name, value);
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50<=", "p95<=", "p99<="
        );
        for (name, h) in &snap.histograms {
            let q = |p: f64| h.quantile(p).map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>10.1} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.mean(),
                q(0.5),
                q(0.95),
                q(0.99)
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistSnapshot;

    fn ev(name: &'static str, tid: u64, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent { name, tid, start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_children() {
        // parent [0,100) with children [10,30) and [40,90)
        let snap = Snapshot {
            events: vec![
                ev("parent", 1, 0, 100),
                ev("child", 1, 10, 20),
                ev("child", 1, 40, 50),
            ],
            ..Default::default()
        };
        let stats = aggregate(&snap.events);
        assert_eq!(stats["parent"].total_us, 100);
        assert_eq!(stats["parent"].self_us, 30);
        assert_eq!(stats["child"].count, 2);
        assert_eq!(stats["child"].self_us, 70);
    }

    #[test]
    fn threads_do_not_nest_across_tids() {
        // same timestamps on different tids must not be treated as nested
        let snap = Snapshot {
            events: vec![ev("a", 1, 0, 100), ev("b", 2, 10, 20)],
            ..Default::default()
        };
        let stats = aggregate(&snap.events);
        assert_eq!(stats["a"].self_us, 100);
        assert_eq!(stats["b"].self_us, 20);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let mut snap = Snapshot {
            events: vec![ev("span \"x\"", 3, 5, 7)],
            ..Default::default()
        };
        snap.counters.insert("hits".into(), 4);
        let json = chrome_trace(&snap);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.trim_end().ends_with('}'));
        // balanced braces/brackets as a cheap structural check
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The exact bytes for two spans and a counter: the format is a
    /// contract with whatever loads the file.
    #[test]
    fn chrome_trace_output_is_pinned() {
        let mut snap = Snapshot {
            events: vec![ev("eval.run", 1, 0, 120), ev("eval.sample", 2, 10, 30)],
            ..Default::default()
        };
        snap.counters.insert("minidb.work.total".into(), 42);
        assert_eq!(
            chrome_trace(&snap),
            "{\"traceEvents\":[\n\
             {\"name\":\"eval.run\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":0,\"dur\":120,\"pid\":1,\"tid\":1},\n\
             {\"name\":\"eval.sample\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":10,\"dur\":30,\"pid\":1,\"tid\":2},\n\
             {\"name\":\"minidb.work.total\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":42}}\n\
             ],\"displayTimeUnit\":\"ms\"}\n"
        );
    }

    #[test]
    fn flame_summary_lists_sections() {
        let mut snap = Snapshot {
            events: vec![ev("work", 1, 0, 10)],
            ..Default::default()
        };
        snap.counters.insert("c".into(), 1);
        snap.histograms.insert(
            "h".into(),
            HistSnapshot { buckets: vec![0, 1], count: 1, sum: 1 },
        );
        let text = flame_summary(&snap);
        assert!(text.contains("work"));
        assert!(text.contains("counter"));
        assert!(text.contains("histogram"));
        assert!(flame_summary(&Snapshot::default()).contains("no observability data"));
    }
}
