//! In-memory spans recorded by the benchmark around calls into the
//! program's public functions, plus the arithmetic that turns them into
//! per-layer numbers: duration percentiles, self time, and the
//! `server.overhead_ms` derivation.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// Returned by [`Tracer::open`] when tracing is off.
const NO_SPAN: SpanId = usize::MAX;

/// One timed interval: nanoseconds since the run's shared epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<SpanId>,
    /// Frame (job) identifier shared by every span of one frame.
    pub frame: u64,
    /// Kind of input the frame belongs to (its generator family where a
    /// class mixes families, else 0). Percentiles are taken per kind and
    /// averaged ([`stats::balanced_percentile`]).
    pub kind: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. When off, [`Tracer::open`] and
/// [`Tracer::close`] record nothing, so traced and untraced loops run the
/// same code.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    kind: usize,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            kind: 0,
            spans: Vec::new(),
        }
    }

    /// Tags the spans opened from now on with input kind `kind`.
    pub fn set_kind(&mut self, kind: usize) {
        self.kind = kind;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, frame: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
            kind: self.kind,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, frame);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of `spans[id]`: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (concurrent work
/// under one parent) count once; children are clipped to the parent.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut cover: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration_ns() - covered
}

/// The `permille`-th percentile (ms) of the durations of the spans named
/// `name`, taken per kind and averaged over the kinds, with the sample
/// count. NaN when no span has the name.
pub fn pct_ms(spans: &[Span], name: &str, permille: u32) -> (f64, usize) {
    let mut kinds: Vec<Vec<f64>> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if kinds.len() <= s.kind {
            kinds.resize(s.kind + 1, Vec::new());
        }
        kinds[s.kind].push(s.duration_ns() as f64 / 1e6);
    }
    let n = kinds.iter().map(Vec::len).sum();
    (stats::balanced_percentile(&kinds, permille), n)
}

/// `server.overhead_ms`: the median round trip of the `roundtrip` spans
/// minus the summed medians of the replayed layer spans that make up the
/// same path (request encode, ingest, label, response encode, decode).
/// What is left is the time no replayed layer accounts for: transport,
/// poll wake-ups and queue hand-off.
pub fn overhead_ms(spans: &[Span], roundtrip: &str, chain: &[&str]) -> f64 {
    let layers: f64 = chain.iter().map(|name| pct_ms(spans, name, 500).0).sum();
    pct_ms(spans, roundtrip, 500).0 - layers
}

/// Per-name summary for the span dump: count, median duration and median
/// self time (ms).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    for (id, s) in spans.iter().enumerate() {
        let own = if has_child[id] {
            self_time_ns(spans, id)
        } else {
            s.duration_ns()
        };
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.duration_ns() as f64 / 1e6);
        entry.1.push(own as f64 / 1e6);
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            (
                name,
                (total.len(), stats::median(&total), stats::median(&own)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: 0,
            kind: 0,
        }
    }

    #[test]
    fn self_time_without_children_is_duration() {
        let spans = vec![span("frame", 100, 350, None)];
        assert_eq!(self_time_ns(&spans, 0), 250);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, so
        // they cover 10..60 = 50; a grandchild never counts against the
        // root; a child poking past the parent is clipped to 90..100.
        let spans = vec![
            span("frame", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 130, Some(0)),
            span("a.inner", 15, 35, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        // A child nested entirely inside another child adds nothing.
        let nested = vec![
            span("frame", 0, 100, None),
            span("a", 10, 80, Some(0)),
            span("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_time_ns(&nested, 0), 30);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("x", 0, 5, None), span("y", 1, 2, Some(0))];
        let b = vec![span("x", 0, 5, None), span("y", 1, 2, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[1].parent, Some(0));
    }

    #[test]
    fn overhead_is_roundtrip_median_minus_layer_medians() {
        // Three round trips of 10, 12 and 30 ms (median 12) and a replayed
        // chain whose layer medians are 2 + 3 + 4 = 9 ms.
        let ms = 1_000_000;
        let mut spans = vec![
            span("client.roundtrip", 0, 10 * ms, None),
            span("client.roundtrip", 0, 12 * ms, None),
            span("client.roundtrip", 0, 30 * ms, None),
        ];
        for (name, d) in [("encode", 2), ("label", 3), ("decode", 4)] {
            for extra in [0, 1, 5] {
                spans.push(span(name, 0, (d + extra) * ms, None));
            }
        }
        // The median of {d, d+1, d+5} is d+1.
        let got = overhead_ms(&spans, "client.roundtrip", &["encode", "label", "decode"]);
        assert!((got - (12.0 - (3.0 + 4.0 + 5.0))).abs() < 1e-9, "{got}");
        // A missing layer poisons the result instead of reading as zero.
        assert!(overhead_ms(&spans, "client.roundtrip", &["missing"]).is_nan());
    }

    #[test]
    fn overhead_balances_kinds_whose_latencies_do_not_overlap() {
        // Kind 0 round trips take 1 ms of which the layers explain 0.5;
        // kind 1 round trips take 9 ms of which the layers explain 2. The
        // overhead is the mean of the per-kind overheads, (0.5 + 7) / 2,
        // however unevenly the kinds are sampled.
        let ms = 1_000_000;
        let mut spans = Vec::new();
        for (kind, rt, layer, count) in [(0, 1, ms / 2, 7), (1, 9, 2 * ms, 4)] {
            for _ in 0..count {
                let mut s = span("client.roundtrip", 0, rt * ms, None);
                s.kind = kind;
                spans.push(s);
                let mut l = span("label", 0, layer, None);
                l.kind = kind;
                spans.push(l);
            }
        }
        let got = overhead_ms(&spans, "client.roundtrip", &["label"]);
        assert!((got - 3.75).abs() < 1e-9, "{got}");
        assert_eq!(pct_ms(&spans, "label", 500), (1.25, 11));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", None, 1);
        t.close(id);
        assert_eq!(t.time("y", None, 1, || 7), 7);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.open("frame", None, 3);
        t.set_kind(2);
        t.time("child", Some(root), 3, || ());
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].kind, spans[1].kind), (0, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
