//! Simulator self-profiling: the hierarchical span stack feeding
//! [`SpanTree`](crate::SpanTree) (`noc-prof`).

use crate::prof::{NodeId, SpanTree, MAX_SPAN_DEPTH, ROOT};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wall-clock accounting for one experiment unit executed by the runner
/// (`noc-runner`): how long the unit took end to end and how it terminated.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Stable run key of the unit.
    pub key: String,
    /// Terminal status label (`ok`, `failed`, `timed-out`, `skipped`).
    pub status: &'static str,
    /// Wall-clock milliseconds.
    pub millis: f64,
}

/// The clock reading of a timed occurrence and the number of occurrences it
/// stands for; `None` on the occurrences the sampling schedule skips.
type Timed = Option<(Instant, u64)>;

/// `(elapsed nanoseconds, weight)` of a timed occurrence that ends now.
#[inline]
fn stop(timed: Timed) -> Option<(u128, u64)> {
    timed.map(|(t0, weight)| (t0.elapsed().as_nanos(), weight))
}

/// One open frame on the span stack: its interned path, its clock reading
/// and the cycle-domain counts charged while it was innermost.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    name: &'static str,
    node: NodeId,
    timed: Timed,
    flits: u64,
    allocs: u64,
}

/// An open leaf span: what [`Profiler::leaf_enter`] hands to
/// [`Profiler::leaf_exit`].
#[derive(Debug, Clone, Copy)]
pub struct LeafSpan {
    node: NodeId,
    timed: Timed,
}

/// Collects per-unit wall-clock rows for the end-of-run
/// self-profile table, plus the hierarchical span stack aggregated into a
/// [`SpanTree`]. Wall-clock values are nondeterministic, so the profile is
/// reported separately and never included in the determinism-checked run
/// artifacts; the span tree's cycle-domain counters (calls/flits/allocs)
/// *are* deterministic and render separately via
/// [`SpanTree::tree_table`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Events the tracer's ring buffer evicted, when a tracer ran alongside.
    trace_drops: Option<u64>,
    /// Per-unit wall-clock rows recorded by the execution engine.
    runs: Vec<RunRow>,
    /// Aggregated span hierarchy.
    spans: SpanTree,
    /// Currently open spans, innermost last.
    stack: Vec<OpenSpan>,
}

impl Profiler {
    /// A fresh profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// The node a span called `name` opened now belongs to: the child of
    /// the innermost open frame, or the depth-cap frame's own node once the
    /// stack is [`MAX_SPAN_DEPTH`] deep.
    #[inline]
    fn resolve(&mut self, name: &'static str) -> NodeId {
        match self.stack.get(MAX_SPAN_DEPTH - 1) {
            Some(cap) => cap.node,
            None => self.spans.child(self.stack.last().map_or(ROOT, |top| top.node), name),
        }
    }

    /// Begins one sampled occurrence of the span called `name`, reading the
    /// clock — last, so the lookup stays outside the measurement — only if
    /// the path's schedule times this occurrence.
    #[inline]
    fn begin(&mut self, name: &'static str) -> (NodeId, Timed) {
        let node = self.resolve(name);
        (node, self.spans.begin(node).map(|weight| (Instant::now(), weight)))
    }

    /// Opens a nested span. Spans past [`MAX_SPAN_DEPTH`] still balance
    /// their exits but aggregate into the depth-cap ancestor (counted as a
    /// truncation warning).
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) {
        if self.stack.len() >= MAX_SPAN_DEPTH {
            self.spans.note_truncated_enter();
        }
        let (node, timed) = self.begin(name);
        self.stack.push(OpenSpan { name, node, timed, flits: 0, allocs: 0 });
    }

    /// Charges `flits` handled and `allocs` buffer allocations to the
    /// innermost open span (the counting hook). No-op outside any span.
    #[inline]
    pub fn span_count(&mut self, flits: u64, allocs: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.flits += flits;
            top.allocs += allocs;
        }
    }

    /// Closes the innermost open span, aggregating it into the tree.
    ///
    /// An exit without a matching enter is a caller bug: debug builds
    /// assert, release builds count it (surfaced as a table warning) and
    /// keep going.
    #[inline]
    pub fn span_exit(&mut self) {
        let Some(top) = self.stack.pop() else {
            self.spans.note_unbalanced_exit();
            debug_assert!(false, "span_exit without a matching span_enter");
            return;
        };
        self.spans.record(top.node, stop(top.timed), top.flits, top.allocs);
    }

    /// Records one completed child span of the current path directly, with
    /// an externally measured duration, which is kept exact.
    #[inline]
    pub fn span_leaf(&mut self, name: &'static str, elapsed: Duration, flits: u64, allocs: u64) {
        let node = self.resolve(name);
        self.spans.record(node, Some((elapsed.as_nanos(), 1)), flits, allocs);
    }

    /// Opens a leaf span: a child of the current path that never nests
    /// further and stays off the span stack, so counts charged while it is
    /// open land on the enclosing frame. Pair with [`Profiler::leaf_exit`].
    #[inline]
    pub fn leaf_enter(&mut self, name: &'static str) -> LeafSpan {
        let (node, timed) = self.begin(name);
        LeafSpan { node, timed }
    }

    /// Closes a leaf span opened by [`Profiler::leaf_enter`], charging it
    /// `flits` handled.
    #[inline]
    pub fn leaf_exit(&mut self, leaf: LeafSpan, flits: u64) {
        self.spans.record(leaf.node, stop(leaf.timed), flits, 0);
    }

    /// Closes every still-open span (graceful shutdown of an interrupted
    /// run); afterwards the stack is empty.
    pub fn close_open_spans(&mut self) {
        while !self.stack.is_empty() {
            self.span_exit();
        }
    }

    /// The aggregated span hierarchy.
    #[must_use]
    pub fn span_tree(&self) -> &SpanTree {
        &self.spans
    }

    /// Current open-span depth (0 outside any span).
    #[must_use]
    pub fn span_depth(&self) -> usize {
        self.stack.len()
    }

    /// The names of the currently open spans, outermost first — the
    /// "where were we" path captured into flight-recorder snapshots.
    #[must_use]
    pub fn open_span_path(&self) -> Vec<&'static str> {
        self.stack.iter().map(|frame| frame.name).collect()
    }

    /// Folds another profiler's aggregates into this one: span tree,
    /// warning counters, trace drops, and run rows.
    /// Open frames on `other`'s stack are not merged — close them first
    /// (see [`Profiler::close_open_spans`]). Per-key addition keeps the
    /// merge associative and commutative, so fleet aggregation across
    /// workers is independent of completion order.
    pub fn merge(&mut self, other: &Profiler) {
        self.spans.merge(&other.spans);
        if let Some(dropped) = other.trace_drops {
            self.trace_drops = Some(self.trace_drops.unwrap_or(0) + dropped);
        }
        self.runs.extend(other.runs.iter().cloned());
    }

    /// Records how many events the tracer's ring buffer dropped, so the
    /// self-profile table can warn about a truncated trace.
    pub fn set_trace_drops(&mut self, dropped: u64) {
        self.trace_drops = Some(dropped);
    }

    /// Tracer ring-buffer drops, if a tracer ran alongside this profiler.
    pub fn trace_drops(&self) -> Option<u64> {
        self.trace_drops
    }

    /// Records the wall-clock accounting of one runner-executed unit.
    pub fn add_run(&mut self, key: impl Into<String>, status: &'static str, millis: f64) {
        self.runs.push(RunRow { key: key.into(), status, millis });
    }

    /// Per-unit wall-clock rows, in insertion (completion) order.
    pub fn runs(&self) -> &[RunRow] {
        &self.runs
    }

    /// Renders the self-profile table shown at run end.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("self-profile\n");
        if let Some(dropped) = self.trace_drops {
            let _ = writeln!(out, "  trace ring drops: {dropped}");
        }
        if self.spans.truncated_enters() > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} span enter(s) past depth {MAX_SPAN_DEPTH} folded into ancestor",
                self.spans.truncated_enters()
            );
        }
        if self.spans.unbalanced_exits() > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} unbalanced span exit(s) ignored",
                self.spans.unbalanced_exits()
            );
        }
        if !self.spans.is_empty() {
            out.push_str(&self.spans.wall_table());
        }
        if !self.runs.is_empty() {
            out.push_str("  per-run wall clock\n");
            out.push_str("  run key                                    status           ms\n");
            let mut rows: Vec<&RunRow> = self.runs.iter().collect();
            rows.sort_by(|a, b| a.key.cmp(&b.key));
            for r in rows {
                let _ = writeln!(out, "  {:<42} {:<9} {:>9.1}", r.key, r.status, r.millis);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_everything() {
        let mut p = Profiler::new();
        let table = p.table();
        assert!(table.starts_with("self-profile\n"));
        assert!(!table.contains("trace ring drops"));
        p.set_trace_drops(17);
        assert_eq!(p.trace_drops(), Some(17));
        assert!(p.table().contains("trace ring drops: 17"));
    }

    #[test]
    fn span_stack_builds_hierarchy_with_counts() {
        let mut p = Profiler::new();
        p.span_enter("step_cycle");
        p.span_enter("link.traverse");
        p.span_count(3, 1);
        p.span_exit();
        p.span_enter("link.traverse");
        p.span_count(2, 0);
        p.span_exit();
        p.span_exit();
        assert_eq!(p.span_depth(), 0);
        let tree = p.span_tree();
        let leaf = tree.get(&["step_cycle", "link.traverse"]).unwrap();
        assert_eq!(leaf.calls, 2);
        assert_eq!(leaf.flits, 5);
        assert_eq!(leaf.allocs, 1);
        assert_eq!(tree.get(&["step_cycle"]).unwrap().calls, 1);
        let table = p.table();
        assert!(table.contains("span tree (wall clock)"), "{table}");
        assert!(table.contains("link.traverse"));
    }

    #[test]
    fn span_leaf_records_under_current_path() {
        let mut p = Profiler::new();
        p.span_enter("step_cycle");
        p.span_leaf("ecc.decode", Duration::from_nanos(40), 1, 0);
        p.span_leaf("ecc.decode", Duration::from_nanos(60), 1, 0);
        p.span_exit();
        let s = p.span_tree().get(&["step_cycle", "ecc.decode"]).unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.nanos, 100);
        assert_eq!(s.flits, 2);
    }

    #[test]
    fn unbalanced_exit_is_counted_gracefully_in_release() {
        // Debug builds assert; in either build the counter must advance and
        // the profiler must stay usable.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = Profiler::new();
            p.span_exit();
            p
        }));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug builds must assert on unbalanced exit");
        } else {
            let mut p = result.expect("release builds must not panic");
            assert_eq!(p.span_tree().unbalanced_exits(), 1);
            assert!(p.table().contains("unbalanced span exit"));
            p.span_enter("still.works");
            p.span_exit();
            assert_eq!(p.span_tree().get(&["still.works"]).unwrap().calls, 1);
        }
    }

    #[test]
    fn zero_duration_span_still_counts_calls() {
        let mut p = Profiler::new();
        p.span_leaf("instant", Duration::ZERO, 0, 0);
        let s = p.span_tree().get(&["instant"]).unwrap();
        assert_eq!(s.calls, 1);
        assert_eq!(s.nanos, 0);
        // Zero-weight frames are fine in the flamegraph (weight 0 lines are
        // legal collapsed-stack, and inferno ignores them).
        assert!(p.span_tree().flamegraph().contains("instant 0"));
    }

    #[test]
    fn deep_nesting_folds_past_cap_and_balances() {
        let mut p = Profiler::new();
        for _ in 0..(MAX_SPAN_DEPTH + 5) {
            p.span_enter("deep");
        }
        assert_eq!(p.span_tree().truncated_enters(), 5);
        for _ in 0..(MAX_SPAN_DEPTH + 5) {
            p.span_exit();
        }
        assert_eq!(p.span_depth(), 0);
        assert_eq!(p.span_tree().unbalanced_exits(), 0);
        // The 5 over-deep frames fold into the depth-cap node: 6 calls there.
        let cap_path: Vec<&'static str> = vec!["deep"; MAX_SPAN_DEPTH];
        assert_eq!(p.span_tree().get(&cap_path).unwrap().calls, 6);
        assert!(p.table().contains("folded into ancestor"));
    }

    #[test]
    fn close_open_spans_drains_interrupted_stack() {
        let mut p = Profiler::new();
        p.span_enter("a");
        p.span_enter("b");
        p.close_open_spans();
        assert_eq!(p.span_depth(), 0);
        assert_eq!(p.span_tree().get(&["a", "b"]).unwrap().calls, 1);
        assert_eq!(p.span_tree().get(&["a"]).unwrap().calls, 1);
    }

    #[test]
    fn merge_is_order_independent_across_workers() {
        let make = |n: u64| {
            let mut p = Profiler::new();
            p.span_enter("step_cycle");
            p.span_count(n, 0);
            p.span_exit();
            p.set_trace_drops(n);
            p
        };
        let (a, b, c) = (make(1), make(2), make(4));
        let mut left = Profiler::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        let mut right = Profiler::new();
        right.merge(&c);
        right.merge(&a);
        right.merge(&b);
        assert_eq!(left.trace_drops(), Some(7));
        let (ls, rs) = (left.span_tree(), right.span_tree());
        assert_eq!(ls.get(&["step_cycle"]), rs.get(&["step_cycle"]));
        assert_eq!(ls.get(&["step_cycle"]).unwrap().flits, 7);
        assert_eq!(ls.get(&["step_cycle"]).unwrap().calls, 3);
    }

    #[test]
    fn run_rows_render_sorted_by_key() {
        let mut p = Profiler::new();
        assert!(!p.table().contains("per-run wall clock"));
        p.add_run("campaign/b/Secded", "ok", 12.5);
        p.add_run("campaign/a/Secded", "timed-out", 900.0);
        assert_eq!(p.runs().len(), 2);
        let table = p.table();
        assert!(table.contains("per-run wall clock"));
        let a = table.find("campaign/a/Secded").unwrap();
        let b = table.find("campaign/b/Secded").unwrap();
        assert!(a < b, "rows must be sorted by key");
        assert!(table.contains("timed-out"));
    }
}
