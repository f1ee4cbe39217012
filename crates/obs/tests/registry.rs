//! Prometheus text-exposition conformance for the metric registry:
//! escaping, deterministic byte-for-byte output, histogram `le` bucket
//! monotonicity with a terminal `+Inf`, and the global-recorder bridge.

use obs::registry::{bridge_recorder, sanitize_name};
use obs::Registry;

/// Parse every sample line of an exposition body into
/// `(metric_name, labels, value)` tuples, skipping comments. Panics on any
/// line that does not scan — the tests use this as a format check.
fn parse_exposition(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"))
        };
        let (name, labels) = match series.find('{') {
            Some(i) => {
                assert!(series.ends_with('}'), "unterminated label block: {line}");
                (&series[..i], &series[i + 1..series.len() - 1])
            }
            None => (series, ""),
        };
        assert!(!name.is_empty(), "empty metric name: {line}");
        assert!(
            name.chars().next().unwrap().is_ascii_alphabetic() || name.starts_with('_'),
            "bad metric name start: {line}"
        );
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name charset: {line}"
        );
        out.push((name.to_string(), labels.to_string(), value));
    }
    out
}

#[test]
fn label_values_escape_quotes_backslashes_and_newlines() {
    let reg = Registry::new();
    let fam = reg.counter_vec("esc_total", "help with \\ and\nnewline", &["v"]);
    fam.with(&["say \"hi\""]).inc();
    fam.with(&["back\\slash"]).inc();
    fam.with(&["two\nlines"]).inc();
    let text = reg.render_prometheus();
    assert!(text.contains(r#"v="say \"hi\"""#), "{text}");
    assert!(text.contains(r#"v="back\\slash""#), "{text}");
    assert!(text.contains(r#"v="two\nlines""#), "{text}");
    // the help line escapes backslash and newline but not quotes
    assert!(text.contains("# HELP esc_total help with \\\\ and\\nnewline"), "{text}");
    // no raw newline may survive inside any sample line
    for line in text.lines() {
        assert!(!line.is_empty() || text.ends_with('\n'));
    }
    parse_exposition(&text);
}

#[test]
fn output_is_deterministic_byte_for_byte() {
    let build = || {
        let reg = Registry::new();
        // register families and series in a scrambled order on purpose
        let h = reg.histogram_vec("zz_lat_us", "latency", &["method"]);
        let c = reg.counter_vec("aa_req_total", "requests", &["method", "outcome"]);
        for (m, o) in [("b", "ok"), ("a", "err"), ("a", "ok")] {
            c.with(&[m, o]).add(7);
        }
        for m in ["beta", "alpha"] {
            let cell = h.with(&[m]);
            for v in [3u64, 900, 17] {
                cell.record(v);
            }
        }
        reg.gauge_vec("mm_depth", "depth", &[]).with(&[]).set(5);
        reg
    };
    let a = build().render_prometheus();
    let b = build().render_prometheus();
    assert_eq!(a, b, "same state must render identically");
    assert_eq!(build().render_json(), build().render_json());
    // families sorted by name, series sorted by label values
    let aa = a.find("aa_req_total").unwrap();
    let mm = a.find("mm_depth").unwrap();
    let zz = a.find("zz_lat_us").unwrap();
    assert!(aa < mm && mm < zz, "family order");
    let a_err = a.find("method=\"a\",outcome=\"err\"").unwrap();
    let a_ok = a.find("method=\"a\",outcome=\"ok\"").unwrap();
    let b_ok = a.find("method=\"b\",outcome=\"ok\"").unwrap();
    assert!(a_err < a_ok && a_ok < b_ok, "series order");
}

#[test]
fn histogram_buckets_are_monotone_and_end_at_inf() {
    let reg = Registry::new();
    let h = reg.histogram_vec("lat_us", "latency", &["m"]).with(&["x"]);
    for v in [0u64, 1, 5, 5, 1000, u64::MAX] {
        h.record(v);
    }
    let text = reg.render_prometheus();
    let samples = parse_exposition(&text);
    let buckets: Vec<&(String, String, f64)> =
        samples.iter().filter(|(n, _, _)| n == "lat_us_bucket").collect();
    assert_eq!(buckets.len(), obs::HIST_BUCKETS, "every bucket must be emitted");
    let mut last_le = f64::NEG_INFINITY;
    let mut last_cum = 0.0;
    for (_, labels, cum) in &buckets {
        let le = labels
            .split(',')
            .find_map(|kv| kv.strip_prefix("le=\""))
            .map(|v| v.trim_end_matches('"'))
            .expect("bucket carries le");
        let le = if le == "+Inf" { f64::INFINITY } else { le.parse::<f64>().unwrap() };
        assert!(le > last_le, "le bounds must strictly increase");
        assert!(*cum >= last_cum, "cumulative counts must be monotone");
        last_le = le;
        last_cum = *cum;
    }
    assert!(last_le.is_infinite(), "terminal bucket must be +Inf");
    let count = samples.iter().find(|(n, _, _)| n == "lat_us_count").unwrap().2;
    assert_eq!(last_cum, count, "+Inf bucket must equal _count");
    assert_eq!(count, 6.0);
    let sum = samples.iter().find(|(n, _, _)| n == "lat_us_sum").unwrap().2;
    assert!(sum > 0.0);
}

#[test]
fn every_series_of_a_mixed_registry_parses() {
    let reg = Registry::new();
    reg.counter_vec("c_total", "", &["k"]).with(&["v"]).add(3);
    reg.gauge_vec("g", "", &[]).with(&[]).set(9);
    reg.histogram_vec("h_us", "", &[]).with(&[]).record(250);
    let samples = parse_exposition(&reg.render_prometheus());
    // counter + gauge + (64 buckets + sum + count)
    assert_eq!(samples.len(), 2 + obs::HIST_BUCKETS + 2);
    let json = reg.render_json();
    assert!(json.starts_with("{\"families\":["));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn recorder_bridge_exposes_span_counter_and_histogram_data() {
    obs::reset();
    {
        let _on = obs::enable();
        let _span = obs::span("bridge.test_span");
        obs::count("bridge.test_counter", 5);
        obs::observe("bridge.test_hist", 123);
    }
    let snap = obs::snapshot();
    let reg = bridge_recorder(&snap);
    let text = reg.render_prometheus();
    obs::reset();
    assert!(text.contains("obs_counter_total{name=\"bridge.test_counter\"} 5"), "{text}");
    assert!(text.contains("obs_histogram_us_count{name=\"bridge.test_hist\"} 1"), "{text}");
    // the exact sum crosses the bridge, not the bucket's upper bound (127)
    assert!(text.contains("obs_histogram_us_sum{name=\"bridge.test_hist\"} 123"), "{text}");
    assert!(text.contains("obs_spans_total{name=\"bridge.test_span\"} 1"), "{text}");
    assert!(text.contains("obs_span_time_us_total{name=\"bridge.test_span\"}"), "{text}");
    // bridged histograms keep their bucket placement: 123 lives in [64,128)
    let samples = parse_exposition(&text);
    let hist_p99 = reg
        .histogram_vec("obs_histogram_us", "", &["name"])
        .with(&["bridge.test_hist"])
        .inner()
        .quantile(0.99);
    assert_eq!(hist_p99, Some(127));
    assert!(samples.iter().any(|(n, _, _)| n == "obs_histogram_us_bucket"));
}

#[test]
fn sanitized_names_survive_the_parser() {
    let reg = Registry::new();
    reg.counter_vec("serve.request-rate", "", &[]).with(&[]).inc();
    let samples = parse_exposition(&reg.render_prometheus());
    assert_eq!(samples[0].0, sanitize_name("serve.request-rate"));
}
