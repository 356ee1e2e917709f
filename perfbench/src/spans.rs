//! Host wall-clock spans recorded around calls into the workspace crates.
//!
//! A [`Spans`] recorder is either armed (the traced run) or inert (the
//! end-to-end run, where `open`/`close` cost one branch). Spans nest by a
//! stack: the span open when another opens is its parent. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span on the host clock, ns since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a metric-name-safe identifier such as `core.repair`).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`], if any.
    pub parent: Option<usize>,
    /// Request id: the query, batch or job this span served (0 for
    /// set-up and whole-pass spans).
    pub request: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Spans::open`].
#[must_use = "an open span must be closed"]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Spans {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`armed`) or ignores every span.
    pub fn new(armed: bool) -> Spans {
        Spans {
            armed,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for `request`, nested in the innermost
    /// open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.armed {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, request);
        let out = f();
        self.close(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-layer totals over a recorder's spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Group spans by name with their total and self time.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Durations, in ms, of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > leaf [20,30); root > b [50,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // children [10,50) and [30,60) overlap on [30,50): union is 50 ns
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("a", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_by_stack_and_groups_by_layer() {
        let mut tr = Spans::new(true);
        let outer = tr.open("pass", 0);
        tr.time("core.session.run", 7, || std::hint::black_box(1 + 1));
        tr.close(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        let layers = by_layer(s);
        assert_eq!(layers["pass"].count, 1);
        assert!(layers["pass"].self_ns <= layers["pass"].total_ns);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn inert_recorder_records_nothing() {
        let mut tr = Spans::new(false);
        let o = tr.open("pass", 0);
        tr.close(o);
        assert!(tr.spans().is_empty());
    }
}
