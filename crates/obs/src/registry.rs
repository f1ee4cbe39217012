//! Labeled metric families with Prometheus-text and JSON exporters.
//!
//! The global recorder in the crate root is a *tracing* surface: spans and
//! anonymous counters for post-hoc flame analysis. This module is the
//! *live telemetry* surface: typed metric families ([`CounterVec`],
//! [`GaugeVec`], [`HistogramVec`]) with bounded label sets, designed for a
//! long-running service that is scraped while it serves.
//!
//! Recording is lock-free on the hot path: registering a label combination
//! takes the family lock once and returns a handle ([`Counter`],
//! [`Gauge`], [`Histogram`]) that is a plain `Arc`'d atomic cell; callers
//! cache the handle and every subsequent record is a relaxed atomic op.
//! Label sets are bounded — a family refuses to grow past
//! [`Registry::max_series_per_family`] and instead hands out a *detached*
//! cell (recorded but never exported) while counting the drop, so a bug
//! that interpolates unbounded label values degrades to a counter instead
//! of an unbounded scrape.
//!
//! Two exporters, both deterministic byte-for-byte for a given state:
//!
//! - [`Registry::render_prometheus`] — Prometheus text exposition format
//!   (version 0.0.4): families sorted by name, series sorted by label
//!   values, `# HELP`/`# TYPE` headers, escaped label values, histograms
//!   as cumulative `_bucket{le=...}` series with a terminal `+Inf` plus
//!   `_sum`/`_count`.
//! - [`Registry::render_json`] — the same state as a JSON object for
//!   programmatic consumers.
//!
//! [`bridge_recorder`] converts a global-recorder [`Snapshot`] (spans,
//! counters, histograms) into registry families so span data recorded via
//! [`crate::span`]/[`crate::count`] is scrapeable through the same
//! exporters.

use crate::export::json_string;
use crate::{bucket_index, bucket_upper_bound, HistSnapshot, Snapshot, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Shared atomic histogram
// ---------------------------------------------------------------------------

/// Thread-safe fixed-bucket histogram over the crate's one power-of-two
/// bucket table ([`bucket_index`] / [`bucket_upper_bound`]). This is the
/// histogram the serve-layer metrics and the registry both use, so
/// quantiles line up across tracing, cumulative metrics, and scrapes.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy (consistent enough for telemetry: buckets are
    /// loaded one by one while writers may continue).
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistSnapshot { buckets, count, sum: self.sum.load(Ordering::Relaxed) }
    }

    /// Upper bound of the bucket containing quantile `q`; `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// [`Self::quantile`] as a microsecond duration.
    pub fn quantile_duration(&self, q: f64) -> Option<Duration> {
        self.quantile(q).map(Duration::from_micros)
    }

    /// Zero every bucket and the sum. Used by ring-buffer windows when a
    /// bucket rotates into a new interval; concurrent records during the
    /// clear smear into the new interval, which windowed telemetry
    /// tolerates.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Add a snapshot's buckets and exact sum into this histogram.
    pub fn absorb(&self, snap: &HistSnapshot) {
        for (b, &n) in self.buckets.iter().zip(&snap.buckets) {
            b.fetch_add(n, Ordering::Relaxed);
        }
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Add this histogram's buckets and sum into an accumulator.
    pub fn accumulate(&self, buckets: &mut [u64; HIST_BUCKETS], sum: &mut u64) {
        for (acc, b) in buckets.iter_mut().zip(&self.buckets) {
            *acc += b.load(Ordering::Relaxed);
        }
        *sum += self.sum.load(Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Families and cells
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    fn label(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Cell {
    Num(Arc<AtomicU64>),
    Hist(Arc<AtomicHistogram>),
}

#[derive(Debug)]
struct Series {
    label_values: Vec<String>,
    cell: Cell,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: FamilyKind,
    label_keys: Vec<String>,
    series: Mutex<Vec<Series>>,
}

/// Handle to one counter cell: monotonically increasing `u64`. Cloning is
/// cheap (an `Arc` bump); recording is a relaxed atomic add.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to one gauge cell: a settable `u64` level (queue depth,
/// readiness, cache size).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to one histogram cell.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Record a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.0.record_duration(d);
    }

    /// The underlying shared histogram.
    pub fn inner(&self) -> &AtomicHistogram {
        &self.0
    }
}

macro_rules! vec_type {
    ($name:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            family: Arc<Family>,
            max_series: usize,
            dropped: Arc<AtomicU64>,
        }
    };
}

vec_type!(CounterVec, "A family of counters distinguished by label values.");
vec_type!(GaugeVec, "A family of gauges distinguished by label values.");
vec_type!(HistogramVec, "A family of histograms distinguished by label values.");

fn lookup_or_register(
    family: &Family,
    values: &[&str],
    max_series: usize,
    dropped: &AtomicU64,
) -> Cell {
    assert_eq!(
        values.len(),
        family.label_keys.len(),
        "family `{}` takes {} label value(s), got {}",
        family.name,
        family.label_keys.len(),
        values.len()
    );
    let mut series = family.series.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = series.iter().find(|s| s.label_values.iter().map(String::as_str).eq(values.iter().copied()))
    {
        return match &s.cell {
            Cell::Num(c) => Cell::Num(Arc::clone(c)),
            Cell::Hist(h) => Cell::Hist(Arc::clone(h)),
        };
    }
    let make = || match family.kind {
        FamilyKind::Histogram => Cell::Hist(Arc::new(AtomicHistogram::default())),
        _ => Cell::Num(Arc::new(AtomicU64::new(0))),
    };
    if series.len() >= max_series {
        // Bounded label set: hand out a detached cell so the caller can
        // still record, but the series never reaches an exporter.
        dropped.fetch_add(1, Ordering::Relaxed);
        return make();
    }
    let cell = make();
    let clone = match &cell {
        Cell::Num(c) => Cell::Num(Arc::clone(c)),
        Cell::Hist(h) => Cell::Hist(Arc::clone(h)),
    };
    series.push(Series { label_values: values.iter().map(|v| v.to_string()).collect(), cell });
    clone
}

impl CounterVec {
    /// Get (or register) the counter for this label-value tuple.
    pub fn with(&self, values: &[&str]) -> Counter {
        match lookup_or_register(&self.family, values, self.max_series, &self.dropped) {
            Cell::Num(c) => Counter(c),
            Cell::Hist(_) => unreachable!("counter family holds numeric cells"),
        }
    }
}

impl GaugeVec {
    /// Get (or register) the gauge for this label-value tuple.
    pub fn with(&self, values: &[&str]) -> Gauge {
        match lookup_or_register(&self.family, values, self.max_series, &self.dropped) {
            Cell::Num(c) => Gauge(c),
            Cell::Hist(_) => unreachable!("gauge family holds numeric cells"),
        }
    }
}

impl HistogramVec {
    /// Get (or register) the histogram for this label-value tuple.
    pub fn with(&self, values: &[&str]) -> Histogram {
        match lookup_or_register(&self.family, values, self.max_series, &self.dropped) {
            Cell::Hist(h) => Histogram(h),
            Cell::Num(_) => unreachable!("histogram family holds histogram cells"),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Default cap on distinct label-value tuples per family.
pub const DEFAULT_MAX_SERIES_PER_FAMILY: usize = 256;

/// A set of metric families. Construction and registration are locked;
/// recording through the returned handles is lock-free.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<Vec<Arc<Family>>>,
    max_series: usize,
    dropped: Arc<AtomicU64>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry with the default per-family series cap.
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(Vec::new()),
            max_series: DEFAULT_MAX_SERIES_PER_FAMILY,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A registry with an explicit per-family series cap.
    pub fn with_max_series_per_family(max_series: usize) -> Self {
        Registry { max_series, ..Registry::new() }
    }

    /// The per-family series cap.
    pub fn max_series_per_family(&self) -> usize {
        self.max_series
    }

    /// Label-value tuples refused because their family hit the cap.
    pub fn dropped_series(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn family(
        &self,
        name: &str,
        help: &str,
        kind: FamilyKind,
        label_keys: &[&str],
    ) -> Arc<Family> {
        let name = sanitize_name(name);
        let label_keys: Vec<String> = label_keys.iter().map(|k| sanitize_name(k)).collect();
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = families.iter().find(|f| f.name == name) {
            assert_eq!(f.kind, kind, "family `{name}` re-registered as a different kind");
            assert_eq!(
                f.label_keys, label_keys,
                "family `{name}` re-registered with different label keys"
            );
            return Arc::clone(f);
        }
        let f = Arc::new(Family {
            name,
            help: help.to_string(),
            kind,
            label_keys,
            series: Mutex::new(Vec::new()),
        });
        families.push(Arc::clone(&f));
        f
    }

    /// Register (or fetch) a counter family. `name` should carry the
    /// Prometheus `_total` suffix; invalid characters are mapped to `_`.
    pub fn counter_vec(&self, name: &str, help: &str, label_keys: &[&str]) -> CounterVec {
        CounterVec {
            family: self.family(name, help, FamilyKind::Counter, label_keys),
            max_series: self.max_series,
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Register (or fetch) a gauge family.
    pub fn gauge_vec(&self, name: &str, help: &str, label_keys: &[&str]) -> GaugeVec {
        GaugeVec {
            family: self.family(name, help, FamilyKind::Gauge, label_keys),
            max_series: self.max_series,
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Register (or fetch) a histogram family.
    pub fn histogram_vec(&self, name: &str, help: &str, label_keys: &[&str]) -> HistogramVec {
        HistogramVec {
            family: self.family(name, help, FamilyKind::Histogram, label_keys),
            max_series: self.max_series,
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Render the Prometheus text exposition format (version 0.0.4).
    /// Output is deterministic byte-for-byte for a given metric state:
    /// families are sorted by name, series by label values.
    pub fn render_prometheus(&self) -> String {
        let families = self.sorted_families();
        let mut out = String::new();
        for f in &families {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.label());
            let series = f.series.lock().unwrap_or_else(|e| e.into_inner());
            let mut ordered: Vec<&Series> = series.iter().collect();
            ordered.sort_by(|a, b| a.label_values.cmp(&b.label_values));
            for s in ordered {
                match &s.cell {
                    Cell::Num(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            label_block(&f.label_keys, &s.label_values, None),
                            c.load(Ordering::Relaxed)
                        );
                    }
                    Cell::Hist(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            cum += n;
                            let le = if i + 1 == HIST_BUCKETS {
                                "+Inf".to_string()
                            } else {
                                bucket_upper_bound(i).to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                f.name,
                                label_block(&f.label_keys, &s.label_values, Some(&le)),
                                cum
                            );
                        }
                        let labels = label_block(&f.label_keys, &s.label_values, None);
                        let _ = writeln!(out, "{}_sum{} {}", f.name, labels, snap.sum);
                        let _ = writeln!(out, "{}_count{} {}", f.name, labels, snap.count);
                    }
                }
            }
        }
        out
    }

    /// Render the same state as a JSON object:
    /// `{"families":[{"name":...,"kind":...,"series":[...]}]}`.
    pub fn render_json(&self) -> String {
        let families = self.sorted_families();
        let mut out = String::from("{\"families\":[");
        for (fi, f) in families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"kind\":{},\"help\":{},\"series\":[",
                json_string(&f.name),
                json_string(f.kind.label()),
                json_string(&f.help)
            );
            let series = f.series.lock().unwrap_or_else(|e| e.into_inner());
            let mut ordered: Vec<&Series> = series.iter().collect();
            ordered.sort_by(|a, b| a.label_values.cmp(&b.label_values));
            for (si, s) in ordered.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (i, (k, v)) in f.label_keys.iter().zip(&s.label_values).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json_string(k), json_string(v));
                }
                out.push('}');
                match &s.cell {
                    Cell::Num(c) => {
                        let _ = write!(out, ",\"value\":{}", c.load(Ordering::Relaxed));
                    }
                    Cell::Hist(h) => {
                        let snap = h.snapshot();
                        let _ = write!(out, ",\"count\":{},\"sum\":{}", snap.count, snap.sum);
                        let p = |q: f64| {
                            snap.quantile(q).map(|v| v.to_string()).unwrap_or_else(|| "null".into())
                        };
                        let _ = write!(
                            out,
                            ",\"p50\":{},\"p95\":{},\"p99\":{}",
                            p(0.50),
                            p(0.95),
                            p(0.99)
                        );
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        let _ = write!(out, "],\"dropped_series\":{}}}", self.dropped_series());
        out
    }

    fn sorted_families(&self) -> Vec<Arc<Family>> {
        let mut families: Vec<Arc<Family>> =
            self.families.lock().unwrap_or_else(|e| e.into_inner()).iter().map(Arc::clone).collect();
        families.sort_by(|a, b| a.name.cmp(&b.name));
        families
    }
}

// ---------------------------------------------------------------------------
// Global-recorder bridge
// ---------------------------------------------------------------------------

/// Convert a global-recorder [`Snapshot`] into registry families so span,
/// counter, and histogram data recorded through [`crate::span`] /
/// [`crate::count`] / [`crate::observe`] is scrapeable through the same
/// exporters as service metrics:
///
/// - every recorder counter becomes an `obs_counter_total{name=...}` series,
/// - every recorder histogram becomes an `obs_histogram_us{name=...}` series,
/// - completed spans aggregate into `obs_spans_total{name=...}` and
///   `obs_span_time_us_total{name=...}`.
pub fn bridge_recorder(snap: &Snapshot) -> Registry {
    let reg = Registry::new();
    let counters = reg.counter_vec(
        "obs_counter_total",
        "Global-recorder counters, keyed by their recorder name.",
        &["name"],
    );
    for (name, value) in &snap.counters {
        counters.with(&[name]).add(*value);
    }
    let hists = reg.histogram_vec(
        "obs_histogram_us",
        "Global-recorder histograms (microseconds), keyed by recorder name.",
        &["name"],
    );
    for (name, h) in &snap.histograms {
        hists.with(&[name]).inner().absorb(h);
    }
    if !snap.events.is_empty() {
        let spans = reg.counter_vec(
            "obs_spans_total",
            "Completed recorder spans by span name.",
            &["name"],
        );
        let span_time = reg.counter_vec(
            "obs_span_time_us_total",
            "Total recorded span time (microseconds) by span name.",
            &["name"],
        );
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for ev in &snap.events {
            let e = agg.entry(ev.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += ev.dur_us;
        }
        for (name, (count, time)) in agg {
            spans.with(&[name]).add(count);
            span_time.with(&[name]).add(time);
        }
    }
    reg
}

// ---------------------------------------------------------------------------
// Escaping / sanitization
// ---------------------------------------------------------------------------

/// Map a metric or label name onto the Prometheus charset
/// `[a-zA-Z_][a-zA-Z0-9_]*` (invalid characters become `_`, a leading
/// digit is prefixed).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
            continue;
        }
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(keys: &[String], values: &[String], le: Option<&str>) -> String {
    if keys.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in keys.iter().zip(values) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let requests = reg.counter_vec("rt_total", "requests", &["method"]);
        let c = requests.with(&["a"]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // same labels → same cell
        assert_eq!(requests.with(&["a"]).get(), 3);
        let g = reg.gauge_vec("depth", "queue depth", &[]).with(&[]);
        g.set(17);
        assert_eq!(g.get(), 17);
    }

    #[test]
    fn atomic_histogram_matches_bucket_table() {
        let h = AtomicHistogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[bucket_index(0)], 1);
        assert_eq!(snap.buckets[bucket_index(2)], 2); // 2 and 3 share a bucket
        assert_eq!(h.quantile(1.0), Some(bucket_upper_bound(bucket_index(1000))));
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn series_cap_hands_out_detached_cells() {
        let reg = Registry::with_max_series_per_family(2);
        let fam = reg.counter_vec("capped_total", "", &["k"]);
        fam.with(&["a"]).inc();
        fam.with(&["b"]).inc();
        let detached = fam.with(&["c"]);
        detached.inc(); // recording still works
        assert_eq!(reg.dropped_series(), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("k=\"a\""));
        assert!(!text.contains("k=\"c\""), "capped series must not export");
        // the detached tuple is dropped again on re-request, not cached
        fam.with(&["c"]).inc();
        assert_eq!(reg.dropped_series(), 2);
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize_name("serve.requests-total"), "serve_requests_total");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter_vec("x_total", "", &[]);
        reg.gauge_vec("x_total", "", &[]);
    }
}
