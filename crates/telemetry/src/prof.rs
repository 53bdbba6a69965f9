//! `noc-prof`: the hierarchical span layer of the self-profiler.
//!
//! A [`SpanTree`] aggregates nestable spans (entered and exited through the
//! [`Profiler`](crate::Profiler) stack API) into per-path statistics. Each
//! node carries two kinds of data with strictly different determinism
//! guarantees:
//!
//! * **Cycle-domain counters** — invocations, flits handled, buffer
//!   allocations — are functions of the simulation alone, so for a fixed
//!   seed they are byte-identical across machines, worker counts, and
//!   whether profiling is on at all. They feed the deterministic tree table
//!   ([`SpanTree::tree_table`]) and the `noc_prof_*` metric families
//!   ([`export_prof_metrics`]).
//! * **Wall-clock nanoseconds** — machine- and load-dependent. They feed
//!   the human-facing wall table and the collapsed-stack flamegraph
//!   ([`SpanTree::flamegraph`]), and never enter determinism-checked
//!   artifacts.
//!
//! Merging is plain per-path addition, so it is associative and commutative:
//! a fleet of workers can fold per-unit trees in completion order and the
//! cycle-domain result is independent of that order.

use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum recorded span depth. Deeper frames still balance their
/// enter/exit pairs, but their statistics fold into the depth-cap ancestor
/// and a truncation counter increments (surfaced as a table warning and in
/// the runner JSONL log).
pub const MAX_SPAN_DEPTH: usize = 32;

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Total wall-clock time inside the span, children included
    /// (nondeterministic; excluded from cycle-domain artifacts).
    pub nanos: u128,
    /// Number of span entries (cycle-domain, deterministic).
    pub calls: u64,
    /// Flits handled inside the span (cycle-domain, deterministic).
    pub flits: u64,
    /// Buffer allocations charged inside the span via the counting hook
    /// (cycle-domain, deterministic).
    pub allocs: u64,
}

impl SpanStats {
    /// Adds another sample set into this one.
    fn absorb(&mut self, other: &SpanStats) {
        self.nanos += other.nanos;
        self.calls += other.calls;
        self.flits += other.flits;
        self.allocs += other.allocs;
    }
}

/// The aggregated span hierarchy of one run (or of a merged fleet).
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Statistics per full span path, ordered by path (parents sort before
    /// their children, siblings alphabetically).
    nodes: BTreeMap<Vec<&'static str>, SpanStats>,
    /// Span entries beyond [`MAX_SPAN_DEPTH`] (folded into the cap node).
    truncated_enters: u64,
    /// `span_exit` calls without a matching open span (release builds keep
    /// going; debug builds also assert).
    unbalanced_exits: u64,
}

impl SpanTree {
    /// Records one completed span occurrence at `path`. Only the first
    /// occurrence of a path allocates (its key); every later one is a
    /// borrowed-slice lookup.
    pub(crate) fn record(&mut self, path: &[&'static str], stats: SpanStats) {
        let path = &path[..path.len().min(MAX_SPAN_DEPTH)];
        match self.nodes.get_mut(path) {
            Some(node) => node.absorb(&stats),
            None => {
                self.nodes.insert(path.to_vec(), stats);
            }
        }
    }

    pub(crate) fn note_truncated_enter(&mut self) {
        self.truncated_enters += 1;
    }

    pub(crate) fn note_unbalanced_exit(&mut self) {
        self.unbalanced_exits += 1;
    }

    /// Number of distinct span paths recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All recorded `(path, stats)` pairs in canonical (path) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[&'static str], &SpanStats)> {
        self.nodes.iter().map(|(p, s)| (p.as_slice(), s))
    }

    /// Stats of one exact span path, if recorded.
    #[must_use]
    pub fn get(&self, path: &[&'static str]) -> Option<&SpanStats> {
        self.nodes.get(path)
    }

    /// Span entries dropped below the depth cap.
    #[must_use]
    pub fn truncated_enters(&self) -> u64 {
        self.truncated_enters
    }

    /// Unmatched `span_exit` calls observed.
    #[must_use]
    pub fn unbalanced_exits(&self) -> u64 {
        self.unbalanced_exits
    }

    /// Adds every node (and warning counter) of `other` into `self`.
    /// Addition per path makes this associative and commutative, so fleet
    /// merges are independent of worker completion order.
    pub fn merge(&mut self, other: &SpanTree) {
        for (path, stats) in &other.nodes {
            self.nodes.entry(path.clone()).or_default().absorb(stats);
        }
        self.truncated_enters += other.truncated_enters;
        self.unbalanced_exits += other.unbalanced_exits;
    }

    /// Wall-clock nanoseconds spent in `path` itself, excluding its direct
    /// children (the collapsed-stack "self" weight).
    #[must_use]
    pub fn self_nanos(&self, path: &[&'static str]) -> u128 {
        let Some(stats) = self.nodes.get(path) else { return 0 };
        let child_sum: u128 = self
            .nodes
            .iter()
            .filter(|(p, _)| p.len() == path.len() + 1 && p.starts_with(path))
            .map(|(_, s)| s.nanos)
            .sum();
        stats.nanos.saturating_sub(child_sum)
    }

    /// The deterministic self-profile tree: cycle-domain counters only, one
    /// indented row per span path. Byte-identical for a fixed seed whether
    /// the run was serial, parallel, or merged across a fleet.
    #[must_use]
    pub fn tree_table(&self) -> String {
        let mut out = String::new();
        out.push_str("span tree (cycle-domain)\n");
        out.push_str(
            "  span                                        calls        flits       allocs\n",
        );
        for (path, s) in &self.nodes {
            let indented = format!("{}{}", "  ".repeat(path.len() - 1), path[path.len() - 1]);
            let _ =
                writeln!(out, "  {indented:<40} {:>9} {:>12} {:>12}", s.calls, s.flits, s.allocs);
        }
        if self.truncated_enters > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} span entries exceeded depth cap {MAX_SPAN_DEPTH} (folded)",
                self.truncated_enters
            );
        }
        out
    }

    /// The human-facing wall-clock tree: total and self milliseconds per
    /// span (nondeterministic; never part of checked artifacts).
    #[must_use]
    pub fn wall_table(&self) -> String {
        let mut out = String::new();
        out.push_str("  span tree (wall clock)\n");
        out.push_str(
            "  span                                        calls     total_ms      self_ms\n",
        );
        for (path, s) in &self.nodes {
            let indented = format!("{}{}", "  ".repeat(path.len() - 1), path[path.len() - 1]);
            let _ = writeln!(
                out,
                "  {indented:<40} {:>9} {:>12.3} {:>12.3}",
                s.calls,
                s.nanos as f64 / 1e6,
                self.self_nanos(path) as f64 / 1e6,
            );
        }
        out
    }

    /// Collapsed-stack flamegraph text: one `frame;frame;... weight` line
    /// per span path, weighted by self wall-clock nanoseconds. Loadable by
    /// `inferno-flamegraph` and speedscope. The `;` frame separator is
    /// reserved, so any `;` inside a span name is rewritten to `:`.
    #[must_use]
    pub fn flamegraph(&self) -> String {
        let mut out = String::new();
        for path in self.nodes.keys() {
            let frames: Vec<String> = path.iter().map(|f| f.replace(';', ":")).collect();
            let _ = writeln!(out, "{} {}", frames.join(";"), self.self_nanos(path));
        }
        out
    }

    /// The `n` hottest spans by self wall-clock time, as
    /// `(joined path, self nanos, stats)` in descending order (path order
    /// breaks ties deterministically).
    #[must_use]
    pub fn top_self(&self, n: usize) -> Vec<(String, u128, SpanStats)> {
        let mut rows: Vec<(String, u128, SpanStats)> = self
            .nodes
            .iter()
            .map(|(path, s)| (path.join(";"), self.self_nanos(path), *s))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }
}

/// Declares and sets the `noc_prof_*` metric families from a span tree.
/// Only cycle-domain counters are exported, so the exposition stays
/// byte-deterministic for a fixed seed.
///
/// # Errors
///
/// Propagates registry validation errors (impossible for the fixed family
/// names unless the registry already holds same-name families of another
/// kind).
pub fn export_prof_metrics(reg: &mut MetricsRegistry, tree: &SpanTree) -> Result<(), String> {
    reg.declare_counter("noc_prof_span_calls_total", "Span entries, by full span path.")?;
    reg.declare_counter("noc_prof_span_flits_total", "Flits handled inside the span.")?;
    reg.declare_counter(
        "noc_prof_span_allocs_total",
        "Buffer allocations charged to the span via the counting hook.",
    )?;
    reg.declare_counter(
        "noc_prof_span_truncations_total",
        "Span entries folded into the depth-cap ancestor.",
    )?;
    for (path, s) in tree.iter() {
        let span = path.join("/");
        let labels = [("span", span.as_str())];
        reg.counter_set("noc_prof_span_calls_total", &labels, s.calls as f64)?;
        reg.counter_set("noc_prof_span_flits_total", &labels, s.flits as f64)?;
        reg.counter_set("noc_prof_span_allocs_total", &labels, s.allocs as f64)?;
    }
    reg.counter_set("noc_prof_span_truncations_total", &[], tree.truncated_enters() as f64)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(nanos: u128, calls: u64) -> SpanStats {
        SpanStats { nanos, calls, flits: 0, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = SpanTree::default();
        t.record(&["a"], stats(100, 1));
        t.record(&["a", "b"], stats(30, 2));
        t.record(&["a", "b", "c"], stats(10, 3));
        assert_eq!(t.self_nanos(&["a"]), 70); // grandchild not double-counted
        assert_eq!(t.self_nanos(&["a", "b"]), 20);
        assert_eq!(t.self_nanos(&["a", "b", "c"]), 10);
        assert_eq!(t.self_nanos(&["missing"]), 0);
    }

    #[test]
    fn sibling_prefix_is_not_a_child() {
        let mut t = SpanTree::default();
        t.record(&["ab"], stats(50, 1));
        t.record(&["a"], stats(40, 1));
        t.record(&["a", "b"], stats(15, 1));
        // `ab` must not be mistaken for a child of `a`.
        assert_eq!(t.self_nanos(&["a"]), 25);
        assert_eq!(t.self_nanos(&["ab"]), 50);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let make = |n: u128, c: u64, path: &[&'static str]| {
            let mut t = SpanTree::default();
            t.record(path, stats(n, c));
            t
        };
        let a = make(10, 1, &["x"]);
        let b = make(20, 2, &["x", "y"]);
        let c = make(30, 3, &["x"]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);

        assert_eq!(ab_c.nodes, a_bc.nodes);
        assert_eq!(ab_c.nodes, cba.nodes);
        assert_eq!(ab_c.get(&["x"]).unwrap().nanos, 40);
        assert_eq!(ab_c.get(&["x"]).unwrap().calls, 4);
    }

    #[test]
    fn flamegraph_escapes_separator_in_names() {
        let mut t = SpanTree::default();
        t.record(&["weird;name", "child;too"], stats(5, 1));
        let fg = t.flamegraph();
        assert_eq!(fg, "weird:name;child:too 5\n");
        // Well-formed collapsed stack: exactly one space separating the
        // stack from its integer weight.
        for line in fg.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(!stack.is_empty());
            weight.parse::<u128>().expect("integer weight");
        }
    }

    #[test]
    fn tree_table_orders_parents_before_children() {
        let mut t = SpanTree::default();
        t.record(&["z_late"], stats(1, 1));
        t.record(&["a", "inner"], stats(1, 7));
        t.record(&["a"], stats(1, 2));
        let table = t.tree_table();
        let a = table.find("\n  a ").unwrap();
        let inner = table.find("inner").unwrap();
        let z = table.find("z_late").unwrap();
        assert!(a < inner && inner < z, "{table}");
        assert!(!table.contains("WARNING"));
    }

    #[test]
    fn deep_paths_fold_into_depth_cap() {
        let mut t = SpanTree::default();
        let deep: Vec<&'static str> = (0..MAX_SPAN_DEPTH + 3).map(|_| "f").collect();
        t.record(&deep, stats(9, 1));
        t.note_truncated_enter();
        assert_eq!(t.len(), 1);
        let (path, s) = t.iter().next().unwrap();
        assert_eq!(path.len(), MAX_SPAN_DEPTH);
        assert_eq!(s.nanos, 9);
        assert!(t.tree_table().contains("WARNING: 1 span entries exceeded depth cap"));
    }

    #[test]
    fn prof_metrics_export_cycle_domain_counters() {
        let mut t = SpanTree::default();
        t.record(&["step_cycle"], SpanStats { nanos: 123, calls: 10, flits: 40, allocs: 7 });
        let mut reg = MetricsRegistry::new();
        export_prof_metrics(&mut reg, &t).unwrap();
        export_prof_metrics(&mut reg, &t).unwrap(); // idempotent redeclare
        let text = crate::render_exposition(&reg);
        assert!(text.contains("noc_prof_span_calls_total{span=\"step_cycle\"} 10"), "{text}");
        assert!(text.contains("noc_prof_span_flits_total{span=\"step_cycle\"} 40"), "{text}");
        assert!(text.contains("noc_prof_span_allocs_total{span=\"step_cycle\"} 7"), "{text}");
        assert!(text.contains("noc_prof_span_truncations_total 0"), "{text}");
        // Wall-clock never leaks into the exposition.
        assert!(!text.contains("123"), "{text}");
    }

    #[test]
    fn top_self_ranks_by_self_time() {
        let mut t = SpanTree::default();
        t.record(&["hot"], stats(1_000, 1));
        t.record(&["hot", "hotter"], stats(900, 1));
        t.record(&["cold"], stats(50, 1));
        let top = t.top_self(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "hot;hotter");
        assert_eq!(top[0].1, 900);
        assert_eq!(top[1].0, "hot");
        assert_eq!(top[1].1, 100);
    }
}
