//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, an optional parent span and a
//! request id shared by the spans of one request.  Spans are kept in a
//! preallocated buffer (so recording does not allocate) and written out
//! when the run ends.  A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans (further spans are
    /// counted as dropped); allocates only when `enabled`.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            capacity,
            dropped: 0,
            enabled,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled or full.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent: parent.map(|p| p.0),
            req,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let now = self.now();
            self.spans[i].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Writes every span as a tab-separated line
    /// (`id name start_ns end_ns parent req`).
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Latencies of the traced and the untraced operations of one traced run.
/// The ratio of their medians is the tracing overhead.
#[derive(Debug, Default)]
pub struct Overhead {
    enabled: bool,
    traced: Vec<f64>,
    plain: Vec<f64>,
}

impl Overhead {
    /// A recorder that keeps latencies only when `enabled` (a traced run).
    pub fn new(enabled: bool) -> Self {
        Overhead {
            enabled,
            ..Overhead::default()
        }
    }

    /// Records one operation's latency.
    pub fn push(&mut self, traced: bool, latency: f64) {
        if !self.enabled {
            return;
        }
        if traced {
            self.traced.push(latency)
        } else {
            self.plain.push(latency)
        }
    }

    /// Summed latency of the untraced operations.
    pub fn plain_sum(&self) -> f64 {
        self.plain.iter().sum()
    }

    /// How much slower the traced operations' median is, in percent;
    /// `None` unless both kinds were recorded.
    pub fn pct(&self) -> Option<f64> {
        if self.traced.is_empty() || self.plain.is_empty() {
            return None;
        }
        Some(100.0 * (median(&self.traced) / median(&self.plain) - 1.0))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Totals per span name of `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end.saturating_sub(s.start);
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (union 40),
        // plus [90,120) which sticks out of the root (10 inside).
        // child [10,30) has its own child [15,25).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 30, 30, 10]);
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["a"].self_ns, 10);
    }

    #[test]
    fn fully_covered_span_has_zero_self_time() {
        let spans = vec![
            span("root", 0, 10, None),
            span("x", 0, 6, Some(0)),
            span("x", 5, 10, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        assert_eq!(totals(&spans)["x"].count, 2);
    }

    #[test]
    fn overhead_compares_medians() {
        let mut o = Overhead::new(true);
        assert_eq!(o.pct(), None);
        for (traced, v) in [(true, 11.0), (false, 10.0), (true, 11.0), (false, 10.0)] {
            o.push(traced, v);
        }
        assert!((o.pct().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(o.plain_sum(), 20.0);
        let mut off = Overhead::new(false);
        off.push(false, 1.0);
        assert_eq!((off.pct(), off.plain_sum()), (None, 0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_full_tracer_drops() {
        let mut off = Tracer::new(false, 4);
        let id = off.begin("x", None, 0);
        off.end(id);
        assert!(id.is_none() && off.spans().is_empty());

        let mut on = Tracer::new(true, 2);
        let root = on.begin("root", None, 7);
        on.span("child", root, 7, || ());
        on.span("late", root, 7, || ());
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.dropped(), 1);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end >= on.spans()[1].end);
    }
}
