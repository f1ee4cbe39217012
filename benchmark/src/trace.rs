//! Spans recorded by the benchmark around calls into each layer.
//!
//! Nothing inside the program is instrumented. For one traced op the
//! benchmark times the whole public call in place (`serve.query`,
//! `http.exchange`, ...) and straight afterwards replays the stages that
//! call runs, one public function at a time. The replayed stages become
//! child spans laid end to end from their parent's start and clipped to
//! its end, so a parent's self time is exactly the part of the measured
//! call its replayed stages do not account for: queueing, wake-ups,
//! framing, the accept poll. Replayed spans say so (`"replayed": true`).

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// One recorded interval. Ids are per recorder; `parent` 0 means none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to.
    pub trace: u32,
    /// This span's id, unique within the recorder and never 0.
    pub span: u32,
    /// The span that caused this one, or 0 for an op root.
    pub parent: u32,
    /// Layer and call, e.g. `minidb.execute`; op roots are `op`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Timed in a replay after the enclosing call, then placed inside it.
    pub replayed: bool,
}

impl Span {
    /// Length of the interval.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A call measured for one op, with the calls it is known to make.
#[derive(Debug, Clone)]
pub struct Node {
    /// Span name.
    pub name: &'static str,
    /// Where it ran, when it was timed in place; `None` for a replayed
    /// call, which is laid after its previous sibling.
    pub start_ns: Option<u64>,
    /// How long it took.
    pub dur_ns: u64,
    /// Calls made inside it.
    pub children: Vec<Node>,
}

impl Node {
    /// A replayed call without children.
    pub fn replayed(name: &'static str, dur_ns: u64) -> Node {
        Node { name, start_ns: None, dur_ns, children: Vec::new() }
    }

    /// A call timed in place at `[start_ns, end_ns]`.
    pub fn in_place(name: &'static str, start_ns: u64, end_ns: u64, children: Vec<Node>) -> Node {
        Node { name, start_ns: Some(start_ns), dur_ns: end_ns - start_ns, children }
    }
}

/// Name of every op's root span.
pub const OP: &str = "op";

/// In-memory span sink; written out once, at exit.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    traces: u32,
    clipped_ns: u64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one op: a root over `[start_ns, end_ns]` and `children`
    /// beneath it.
    pub fn op(&mut self, start_ns: u64, end_ns: u64, children: &[Node]) {
        self.traces += 1;
        let trace = self.traces;
        let root = self.push(trace, 0, OP, start_ns, end_ns, false);
        self.lay(trace, root, start_ns, end_ns, children);
    }

    fn push(
        &mut self,
        trace: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        replayed: bool,
    ) -> u32 {
        let span = self.spans.len() as u32 + 1;
        self.spans.push(Span { trace, span, parent, name, start_ns, end_ns, replayed });
        span
    }

    fn lay(&mut self, trace: u32, parent: u32, from: u64, until: u64, nodes: &[Node]) {
        let mut cursor = from;
        for node in nodes {
            let start = node.start_ns.unwrap_or(cursor).clamp(from, until);
            let wanted = start + node.dur_ns;
            let end = wanted.min(until);
            self.clipped_ns += wanted - end;
            let id = self.push(trace, parent, node.name, start, end, node.start_ns.is_none());
            self.lay(trace, id, start, end, &node.children);
            cursor = end;
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Replayed time that did not fit inside its measured parent. A
    /// replay slower than the call it explains (a cold cache line, a
    /// preempted thread) shows here instead of as negative self time.
    /// Children of a clipped span are clipped again, so this is an upper
    /// bound.
    pub fn clipped_ns(&self) -> u64 {
        self.clipped_ns
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<u64> {
        self_times(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(own, _)| own)
            .collect()
    }

    /// One JSON object per line:
    /// `{"trace","span","parent","name","start_ns","end_ns","replayed"}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == 0 { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.trace, s.span, parent, s.name, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its length minus the part of it that its
/// direct children cover, counting overlapping children once. Returned
/// in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.span).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of the share table.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareRow {
    /// Span name, or `unattributed` for the op roots' own self time.
    pub name: String,
    /// Spans with this name.
    pub calls: usize,
    /// Median self time of one such span, nanoseconds.
    pub self_p50_ns: u64,
    /// Mean self time, nanoseconds.
    pub self_mean_ns: f64,
    /// This name's self time over all op time; the column sums to 1.
    pub share: f64,
}

/// Name of the row holding op time no child span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// Self time by span name as a share of all op time. Every nanosecond of
/// an op span is self time of exactly one span beneath (or at) its root,
/// so the shares sum to 1 by construction; op roots' own self time is the
/// [`UNATTRIBUTED`] row. Rows are ordered by share, largest first.
pub fn share_table(spans: &[Span]) -> Vec<ShareRow> {
    let selfs = self_times(spans);
    let op_total: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let name = if s.parent == 0 { UNATTRIBUTED } else { s.name };
        by_name.entry(name).or_default().push(own);
    }
    let mut rows: Vec<ShareRow> = by_name
        .into_iter()
        .map(|(name, mut own)| {
            own.sort_unstable();
            ShareRow {
                name: name.to_string(),
                calls: own.len(),
                self_p50_ns: stats::percentile(&own, 50),
                self_mean_ns: stats::mean(&own),
                share: own.iter().sum::<u64>() as f64 / op_total.max(1) as f64,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("shares are finite"));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { trace: 1, span, parent, name, start_ns, end_ns, replayed: false }
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_ignores_grandchildren() {
        let spans = [
            span(1, 0, OP, 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),       // overlaps a on [30, 40]
            span(4, 1, "c", 90, 120),      // sticks out past the parent
            span(5, 2, "a.inner", 15, 35), // nested: only a's business
        ];
        let own = self_times(&spans);
        // op: 100 - ([10,60] = 50) - ([90,100] = 10) = 40
        assert_eq!(own, vec![40, 10, 30, 30, 20]);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end_and_clipped() {
        let mut rec = Recorder::new();
        let whole = Node::in_place(
            "serve.query",
            1_010,
            1_090,
            vec![
                Node::replayed("modelzoo.translate", 50),
                Node {
                    name: "minidb.run",
                    start_ns: None,
                    dur_ns: 40, // 10 more than is left: clipped
                    children: vec![Node::replayed("minidb.execute", 25)],
                },
            ],
        );
        rec.op(1_000, 1_100, &[whole]);
        let got: Vec<(&str, u64, u64, u32, bool)> = rec
            .spans()
            .iter()
            .map(|s| (s.name, s.start_ns, s.end_ns, s.parent, s.replayed))
            .collect();
        assert_eq!(
            got,
            vec![
                (OP, 1_000, 1_100, 0, false),
                ("serve.query", 1_010, 1_090, 1, false),
                ("modelzoo.translate", 1_010, 1_060, 2, true),
                ("minidb.run", 1_060, 1_090, 2, true),
                ("minidb.execute", 1_060, 1_085, 4, true),
            ]
        );
        assert_eq!(rec.clipped_ns(), 10);
    }

    #[test]
    fn shares_reconcile_to_the_op_spans() {
        let mut rec = Recorder::new();
        for i in 0..3u64 {
            let t = i * 1_000;
            rec.op(
                t,
                t + 100,
                &[Node::in_place(
                    "http.exchange",
                    t + 5,
                    t + 95,
                    vec![Node::replayed("sqlkit.parse", 20), Node::replayed("minidb.execute", 30)],
                )],
            );
        }
        let rows = share_table(rec.spans());
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(rows[0].name, "http.exchange"); // 40 of every 100
        assert_eq!(rows[0].self_p50_ns, 40);
        let unattributed = rows.iter().find(|r| r.name == UNATTRIBUTED).unwrap();
        assert_eq!((unattributed.calls, unattributed.self_p50_ns), (3, 10));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::new();
        rec.op(0, 10, &[Node::replayed("sqlkit.parse", 4)]);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"trace\":1,\"span\":1,\"parent\":null,\"name\":\"op\",\"start_ns\":0,\"end_ns\":10,\"replayed\":false}\n\
             {\"trace\":1,\"span\":2,\"parent\":1,\"name\":\"sqlkit.parse\",\"start_ns\":0,\"end_ns\":4,\"replayed\":true}\n"
        );
    }
}
