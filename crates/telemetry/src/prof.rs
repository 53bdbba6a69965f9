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
//!   whether profiling is on at all. They are exact on every occurrence and
//!   feed the deterministic tree table ([`SpanTree::tree_table`]).
//! * **Wall-clock nanoseconds** — machine- and load-dependent, and an
//!   *estimate*: the clock is read on one occurrence per stride of each
//!   span path (see [`timed_weight`]) and that duration counts for the whole
//!   stride. They feed the human-facing wall table and the collapsed-stack
//!   flamegraph ([`SpanTree::flamegraph`]), and never enter
//!   determinism-checked artifacts.
//!
//! Span paths are interned: a path is a node of an arena, found from its
//! parent by scanning the parent's few children, so recording an occurrence
//! is index arithmetic. Canonical (path-sorted) order is produced when the
//! tree is read, not maintained per occurrence.
//!
//! Merging is plain per-path addition, so it is associative and commutative:
//! a fleet of workers can fold per-unit trees in completion order and the
//! cycle-domain result is independent of that order.

use std::fmt::Write as _;

/// Maximum recorded span depth. Deeper frames still balance their
/// enter/exit pairs, but their statistics fold into the depth-cap ancestor
/// and a truncation counter increments (surfaced as a table warning and in
/// the runner JSONL log).
pub const MAX_SPAN_DEPTH: usize = 32;

/// Longest stride between two timed occurrences of one span path.
const MAX_STRIDE: u64 = 64;

/// The stride doubles with the occurrence count shifted down by this much:
/// the first 256 occurrences of a path are all timed, one in
/// [`MAX_STRIDE`] from the 4 224th on.
const RAMP_SHIFT: u32 = 7;

/// The clock-sampling schedule: whether occurrence `k` (0-based, counted per
/// span path) is timed, and if so the number of occurrences its duration
/// stands for.
///
/// Occurrences are cut into blocks of `stride` (a power of two that grows
/// with `k`, so every block lies inside one stride regime) and exactly one
/// occurrence per block is timed, at an offset hashed from the block index.
/// The hash matters: routers open their spans in index order every cycle,
/// so a fixed offset would time the same router — a mesh corner — forever.
/// Being a pure function of `k`, the choice is deterministic per seed.
#[inline]
pub(crate) fn timed_weight(k: u64) -> Option<u64> {
    let stride = stride_at(k);
    let block = k >> stride.trailing_zeros();
    (k & (stride - 1) == mix(block) & (stride - 1)).then_some(stride)
}

/// The stride regime occurrence `k` falls in: a power of two.
#[inline]
fn stride_at(k: u64) -> u64 {
    (k >> RAMP_SHIFT).next_power_of_two().min(MAX_STRIDE)
}

/// Multiply, fold the high half down, multiply, keep the high half. A single
/// multiply is a Weyl sequence, which resonates with some caller period
/// whatever the constant (the aliasing test finds it).
#[inline]
fn mix(block: u64) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = block.wrapping_mul(PHI);
    (h ^ (h >> 29)).wrapping_mul(PHI) >> 32
}

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Estimated total wall-clock time inside the span, children included:
    /// the sum over timed occurrences of duration × stride
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

/// Index of a span path in its tree's arena.
pub(crate) type NodeId = u32;

/// The parent of every top-level span: the empty path.
pub(crate) const ROOT: NodeId = 0;

/// One interned span path.
#[derive(Debug, Clone, Default)]
struct Node {
    /// The full path, outermost first (empty for [`ROOT`]).
    path: Vec<&'static str>,
    /// `(name, node)` of each child, in first-seen order.
    children: Vec<(&'static str, NodeId)>,
    /// A node exists from its first *enter*; it is part of the tree once an
    /// occurrence has been recorded (`calls > 0`).
    stats: SpanStats,
    /// Occurrences begun so far — the `k` of [`timed_weight`].
    seen: u64,
}

/// The aggregated span hierarchy of one run (or of a merged fleet).
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The arena; `nodes[ROOT]` is the empty path.
    nodes: Vec<Node>,
    /// Span entries beyond [`MAX_SPAN_DEPTH`] (folded into the cap node).
    truncated_enters: u64,
    /// `span_exit` calls without a matching open span (release builds keep
    /// going; debug builds also assert).
    unbalanced_exits: u64,
}

impl Default for SpanTree {
    fn default() -> Self {
        SpanTree { nodes: vec![Node::default()], truncated_enters: 0, unbalanced_exits: 0 }
    }
}

impl SpanTree {
    /// The child of `parent` called `name`, interned on first sight. Span
    /// names are literals, so the address almost always decides; content is
    /// the fallback for one name living at two addresses.
    #[inline]
    pub(crate) fn child(&mut self, parent: NodeId, name: &'static str) -> NodeId {
        let children = &self.nodes[parent as usize].children;
        match children.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
            Some(&(_, node)) => node,
            None => self.child_by_content(parent, name),
        }
    }

    #[cold]
    fn child_by_content(&mut self, parent: NodeId, name: &'static str) -> NodeId {
        let up = &self.nodes[parent as usize];
        if let Some(&(_, node)) = up.children.iter().find(|(n, _)| *n == name) {
            return node;
        }
        let mut path = up.path.clone();
        path.push(name);
        let node = NodeId::try_from(self.nodes.len()).expect("fewer than 2^32 span paths");
        self.nodes.push(Node { path, ..Node::default() });
        self.nodes[parent as usize].children.push((name, node));
        node
    }

    /// Begins one occurrence of `node`: `Some(weight)` when this one is to
    /// be timed (see [`timed_weight`]).
    #[inline]
    pub(crate) fn begin(&mut self, node: NodeId) -> Option<u64> {
        let n = &mut self.nodes[node as usize];
        let k = n.seen;
        n.seen += 1;
        timed_weight(k)
    }

    /// Records one completed occurrence of `node`; `timed` is its
    /// `(elapsed nanoseconds, weight)` when the clock was read.
    #[inline]
    pub(crate) fn record(
        &mut self,
        node: NodeId,
        timed: Option<(u128, u64)>,
        flits: u64,
        allocs: u64,
    ) {
        let s = &mut self.nodes[node as usize].stats;
        s.calls += 1;
        s.flits += flits;
        s.allocs += allocs;
        if let Some((elapsed, weight)) = timed {
            s.nanos += elapsed * u128::from(weight);
        }
    }

    /// Adds `stats` at `path` (folded at the depth cap), interning it.
    pub(crate) fn add(&mut self, path: &[&'static str], stats: &SpanStats) {
        let path = &path[..path.len().min(MAX_SPAN_DEPTH)];
        let node = path.iter().fold(ROOT, |up, name| self.child(up, name));
        self.nodes[node as usize].stats.absorb(stats);
    }

    pub(crate) fn note_truncated_enter(&mut self) {
        self.truncated_enters += 1;
    }

    pub(crate) fn note_unbalanced_exit(&mut self) {
        self.unbalanced_exits += 1;
    }

    /// The nodes that are part of the tree, in arena order.
    fn recorded(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.stats.calls > 0)
    }

    /// The recorded nodes in canonical order: by path, so parents sort
    /// before their children and siblings alphabetically.
    fn sorted(&self) -> Vec<&Node> {
        let mut nodes: Vec<&Node> = self.recorded().collect();
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        nodes
    }

    /// The node at one exact path, recorded or only entered so far.
    fn find(&self, path: &[&'static str]) -> Option<&Node> {
        path.iter().try_fold(&self.nodes[ROOT as usize], |up, name| {
            let &(_, node) = up.children.iter().find(|(n, _)| n == name)?;
            Some(&self.nodes[node as usize])
        })
    }

    /// Wall-clock nanoseconds of the direct children of `node`.
    fn children_nanos(&self, node: &Node) -> u128 {
        node.children.iter().map(|&(_, c)| self.nodes[c as usize].stats.nanos).sum()
    }

    /// Wall-clock nanoseconds of `node` not covered by its direct children.
    fn self_nanos_of(&self, node: &Node) -> u128 {
        node.stats.nanos.saturating_sub(self.children_nanos(node))
    }

    /// Number of distinct span paths recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recorded().count()
    }

    /// Whether no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All recorded `(path, stats)` pairs in canonical (path) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[&'static str], &SpanStats)> {
        self.sorted().into_iter().map(|n| (n.path.as_slice(), &n.stats))
    }

    /// Stats of one exact span path, if recorded.
    #[must_use]
    pub fn get(&self, path: &[&'static str]) -> Option<&SpanStats> {
        self.find(path).map(|n| &n.stats).filter(|s| s.calls > 0)
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
        for node in other.recorded() {
            self.add(&node.path, &node.stats);
        }
        self.truncated_enters += other.truncated_enters;
        self.unbalanced_exits += other.unbalanced_exits;
    }

    /// Wall-clock nanoseconds spent in `path` itself, excluding its direct
    /// children (the collapsed-stack "self" weight).
    #[must_use]
    pub fn self_nanos(&self, path: &[&'static str]) -> u128 {
        self.find(path).map_or(0, |n| self.self_nanos_of(n))
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
        for (path, s) in self.iter() {
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

    /// The human-facing wall-clock tree: estimated total and self
    /// milliseconds per span, and self time as a share of the whole tree
    /// (the sum of the top-level totals). Nondeterministic; never part of
    /// checked artifacts.
    #[must_use]
    pub fn wall_table(&self) -> String {
        let mut out = String::new();
        out.push_str("  span tree (wall clock)\n");
        out.push_str(
            "  span                                        calls     total_ms      self_ms   self %\n",
        );
        let whole = self.children_nanos(&self.nodes[ROOT as usize]).max(1);
        for node in self.sorted() {
            let (path, s) = (&node.path, &node.stats);
            let indented = format!("{}{}", "  ".repeat(path.len() - 1), path[path.len() - 1]);
            let self_ns = self.self_nanos_of(node);
            let _ = writeln!(
                out,
                "  {indented:<40} {:>9} {:>12.3} {:>12.3} {:>8.1}",
                s.calls,
                s.nanos as f64 / 1e6,
                self_ns as f64 / 1e6,
                100.0 * self_ns as f64 / whole as f64,
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
        for node in self.sorted() {
            let frames: Vec<String> = node.path.iter().map(|f| f.replace(';', ":")).collect();
            let _ = writeln!(out, "{} {}", frames.join(";"), self.self_nanos_of(node));
        }
        out
    }

    /// The `n` hottest spans by self wall-clock time, as
    /// `(joined path, self nanos, stats)` in descending order (path order
    /// breaks ties deterministically).
    #[must_use]
    pub fn top_self(&self, n: usize) -> Vec<(String, u128, SpanStats)> {
        let mut rows: Vec<(String, u128, SpanStats)> = self
            .recorded()
            .map(|node| (node.path.join(";"), self.self_nanos_of(node), node.stats))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }
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
        t.add(&["a"], &stats(100, 1));
        t.add(&["a", "b"], &stats(30, 2));
        t.add(&["a", "b", "c"], &stats(10, 3));
        assert_eq!(t.self_nanos(&["a"]), 70); // grandchild not double-counted
        assert_eq!(t.self_nanos(&["a", "b"]), 20);
        assert_eq!(t.self_nanos(&["a", "b", "c"]), 10);
        assert_eq!(t.self_nanos(&["missing"]), 0);
    }

    #[test]
    fn sibling_prefix_is_not_a_child() {
        let mut t = SpanTree::default();
        t.add(&["ab"], &stats(50, 1));
        t.add(&["a"], &stats(40, 1));
        t.add(&["a", "b"], &stats(15, 1));
        // `ab` must not be mistaken for a child of `a`.
        assert_eq!(t.self_nanos(&["a"]), 25);
        assert_eq!(t.self_nanos(&["ab"]), 50);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let make = |n: u128, c: u64, path: &[&'static str]| {
            let mut t = SpanTree::default();
            t.add(path, &stats(n, c));
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

        let rows = |t: &SpanTree| t.iter().map(|(p, s)| (p.to_vec(), *s)).collect::<Vec<_>>();
        assert_eq!(rows(&ab_c), rows(&a_bc));
        assert_eq!(rows(&ab_c), rows(&cba));
        assert_eq!(ab_c.get(&["x"]).unwrap().nanos, 40);
        assert_eq!(ab_c.get(&["x"]).unwrap().calls, 4);
    }

    #[test]
    fn flamegraph_escapes_separator_in_names() {
        let mut t = SpanTree::default();
        t.add(&["weird;name", "child;too"], &stats(5, 1));
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
        t.add(&["z_late"], &stats(1, 1));
        t.add(&["a", "inner"], &stats(1, 7));
        t.add(&["a"], &stats(1, 2));
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
        t.add(&deep, &stats(9, 1));
        t.note_truncated_enter();
        assert_eq!(t.len(), 1);
        let (path, s) = t.iter().next().unwrap();
        assert_eq!(path.len(), MAX_SPAN_DEPTH);
        assert_eq!(s.nanos, 9);
        assert!(t.tree_table().contains("WARNING: 1 span entries exceeded depth cap"));
    }

    /// Occurrences the schedule tests walk: 2²⁰ per path.
    const WALK: u64 = 1 << 20;

    /// The schedule before the hash: the first occurrence of every block.
    fn fixed_phase(k: u64) -> Option<u64> {
        let stride = stride_at(k);
        k.is_multiple_of(stride).then_some(stride)
    }

    #[test]
    fn every_stride_block_times_exactly_one_occurrence() {
        let (mut start, mut last) = (0, 1);
        while start < WALK {
            // The first timed occurrence from `start` on names the block.
            let (at, w) = (start..).find_map(|k| timed_weight(k).map(|w| (k, w))).unwrap();
            assert!(w.is_power_of_two() && w >= last && w <= MAX_STRIDE, "weight {w} at {at}");
            assert!(start.is_multiple_of(w) && at < start + w, "block {start}+{w}, timed {at}");
            let timed = (start..start + w).filter(|&k| timed_weight(k).is_some()).count();
            assert_eq!(timed, 1, "block {start}+{w}");
            (start, last) = (start + w, w);
        }
        assert_eq!(last, MAX_STRIDE);
    }

    #[test]
    fn first_256_occurrences_are_all_timed_then_the_clock_thins_out() {
        assert!((0..256).all(|k| timed_weight(k) == Some(1)));
        assert!((8_192..WALK).all(|k| timed_weight(k).is_none_or(|w| w == MAX_STRIDE)));
        let (mut weight, mut timed) = (0u64, 0u64);
        for k in 0..WALK {
            if let Some(w) = timed_weight(k) {
                weight += w;
                timed += 1;
            }
            // The weights of the timed occurrences stand for all `n` so far,
            // to within one stride; their number is bounded.
            let n = k + 1;
            assert!(weight + 63 >= n && weight <= n + 63, "{weight} for {n} occurrences");
            assert!(timed <= 640 + n / 64, "{timed} clock reads in {n} occurrences");
        }
    }

    /// The `(period, residue)` classes of occurrences past the ramp that
    /// `schedule` times at a rate outside `[1/128, 1/32]`. The simulator
    /// opens its spans in index order — 64 routers every cycle, links in
    /// channel order — so a class is "the same router every time".
    fn aliased_classes(schedule: impl Fn(u64) -> Option<u64>) -> Vec<(u64, u64)> {
        const RAMP_END: u64 = 8_192;
        let timed: Vec<u64> = (RAMP_END..WALK).filter(|&k| schedule(k).is_some()).collect();
        let mut bad = Vec::new();
        for p in 2..=256u64 {
            let mut hits = vec![0u64; p as usize];
            for k in &timed {
                hits[(k % p) as usize] += 1;
            }
            for (r, &hits) in (0..p).zip(&hits) {
                // Occurrences ≡ r (mod p) in RAMP_END..WALK.
                let upto = |n: u64| (n + p - 1 - r) / p;
                let class = upto(WALK) - upto(RAMP_END);
                if hits * 128 < class || hits * 32 > class {
                    bad.push((p, r));
                }
            }
        }
        bad
    }

    #[test]
    fn no_periodic_caller_is_always_or_never_timed() {
        assert_eq!(aliased_classes(timed_weight), []);
    }

    /// The negative control: without the hashed offset, router 0 of every
    /// cycle is timed and the other 63 never are.
    #[test]
    fn a_fixed_phase_schedule_aliases_with_router_order() {
        let bad = aliased_classes(fixed_phase);
        assert!((0..64).all(|r| bad.contains(&(64, r))), "{} classes", bad.len());
    }

    /// A synthetic per-occurrence duration: a warm-up ramp over the first
    /// thousand occurrences, a spike every 64th (what a per-router span
    /// sees from one slow router of 64) and a larger one every 1 000th.
    fn duration(i: u64) -> u128 {
        let warmup = 4 * 1_000u64.saturating_sub(i);
        let spikes =
            if i % 64 == 17 { 1_000 } else { 0 } + if i.is_multiple_of(1_000) { 2_000 } else { 0 };
        u128::from(100 + 10 * (i % 7) + warmup + spikes)
    }

    /// Runs occurrences `range` of the synthetic path `name` through the
    /// schedule and the recording function; returns the exact total.
    fn run_synthetic(t: &mut SpanTree, name: &'static str, range: std::ops::Range<u64>) -> u128 {
        let node = t.child(ROOT, name);
        range
            .map(|i| {
                let timed = t.begin(node).map(|weight| (duration(i), weight));
                t.record(node, timed, 1, 0);
                duration(i)
            })
            .sum()
    }

    #[test]
    fn sampled_nanos_estimate_the_exact_sum() {
        let mut t = SpanTree::default();
        let exact_hot = run_synthetic(&mut t, "hot", 0..1_000_000);
        let exact_rare = run_synthetic(&mut t, "rare", 0..3);
        let exact_ramp = run_synthetic(&mut t, "ramp", 0..256);
        let hot = t.get(&["hot"]).unwrap();
        assert_eq!((hot.calls, hot.flits), (1_000_000, 1_000_000), "counters stay exact");
        let error = hot.nanos.abs_diff(exact_hot) as f64 / exact_hot as f64;
        assert!(error < 0.03, "estimate {} vs exact {exact_hot}: {error:.4}", hot.nanos);
        assert_eq!(t.get(&["rare"]).unwrap().nanos, exact_rare);
        assert_eq!(t.get(&["ramp"]).unwrap().nanos, exact_ramp);
    }

    #[test]
    fn sampled_nanos_stay_additive_under_merge() {
        let (mut a, mut b) = (SpanTree::default(), SpanTree::default());
        let exact = run_synthetic(&mut a, "hot", 0..500_000)
            + run_synthetic(&mut b, "hot", 500_000..1_000_000);
        let halves = a.get(&["hot"]).unwrap().nanos + b.get(&["hot"]).unwrap().nanos;
        a.merge(&b);
        let whole = a.get(&["hot"]).unwrap();
        assert_eq!((whole.nanos, whole.calls), (halves, 1_000_000));
        assert!(whole.nanos.abs_diff(exact) * 100 < exact * 3, "{} vs {exact}", whole.nanos);
    }

    #[test]
    fn top_self_ranks_by_self_time() {
        let mut t = SpanTree::default();
        t.add(&["hot"], &stats(1_000, 1));
        t.add(&["hot", "hotter"], &stats(900, 1));
        t.add(&["cold"], &stats(50, 1));
        let top = t.top_self(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "hot;hotter");
        assert_eq!(top[0].1, 900);
        assert_eq!(top[1].0, "hot");
        assert_eq!(top[1].1, 100);
    }
}
