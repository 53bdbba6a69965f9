//! Benchmark-owned spans: recorded from outside the program, around every
//! call into it. Each span has a name, a start, an end, the span that
//! caused it and an identifier (the unit key) that the spans of one unit
//! share. They stay in memory and are written out when the run ends.

use crate::json::{obj, string};
use serde::Content;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Identifier shared by all spans of one unit (empty outside units).
    pub id: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// The in-memory span log of one benchmark process.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str, id: &str) -> usize {
        let now = self.now_ns();
        let parent = self.current();
        self.spans.push(Span {
            name: name.to_owned(),
            id: id.to_owned(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: an unbalanced exit is a bug here.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("span exit without a matching enter");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Records a span that has already ended, caused by `parent`.
    pub fn record(
        &mut self,
        name: &str,
        id: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            id: id.to_owned(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx`, ns.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        self.spans[idx].end_ns - self.spans[idx].start_ns
    }

    /// Self time of span `idx`: its duration minus the part of that
    /// interval its child spans cover. Children that overlap each other
    /// are not subtracted twice, and a child reaching outside its parent
    /// only counts for the part inside.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let (lo, hi) = (self.spans[idx].start_ns, self.spans[idx].end_ns);
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = lo;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (hi - lo) - covered
    }

    /// The log as a JSON array, one object per span, self time included.
    pub fn to_json(&self) -> Content {
        Content::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj([
                        ("span", Content::U64(i as u64)),
                        ("name", string(&*s.name)),
                        ("id", string(&*s.id)),
                        ("parent", s.parent.map_or(Content::Null, |p| Content::U64(p as u64))),
                        ("start_ns", Content::U64(s.start_ns)),
                        ("end_ns", Content::U64(s.end_ns)),
                        ("self_ns", Content::U64(self.self_ns(i))),
                    ])
                })
                .collect(),
        )
    }
}
