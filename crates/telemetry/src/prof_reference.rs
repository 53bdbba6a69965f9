//! The span profiler as it was before span nodes were interned — a name
//! stack plus a path-keyed map looked up on every span close — kept as the
//! reference the live [`Profiler`] is compared against over random call
//! sequences. It reads no clock: only the cycle-domain side is compared.

use crate::prof::{SpanStats, MAX_SPAN_DEPTH};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Path-keyed span aggregate.
#[derive(Debug, Clone, Default)]
struct RefTree {
    nodes: BTreeMap<Vec<&'static str>, SpanStats>,
    truncated_enters: u64,
    unbalanced_exits: u64,
}

impl RefTree {
    fn record(&mut self, path: &[&'static str], nanos: u128, flits: u64, allocs: u64) {
        let path = &path[..path.len().min(MAX_SPAN_DEPTH)];
        let node = match self.nodes.get_mut(path) {
            Some(node) => node,
            None => self.nodes.entry(path.to_vec()).or_default(),
        };
        node.nanos += nanos;
        node.calls += 1;
        node.flits += flits;
        node.allocs += allocs;
    }
}

/// The reference profiler: span stack, counting hook, leaves and merge.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefProfiler {
    spans: RefTree,
    /// `(flits, allocs)` charged to each open span, innermost last.
    stack: Vec<(u64, u64)>,
    /// Names of the open spans, outermost first.
    path: Vec<&'static str>,
}

impl RefProfiler {
    pub(crate) fn span_enter(&mut self, name: &'static str) {
        if self.stack.len() >= MAX_SPAN_DEPTH {
            self.spans.truncated_enters += 1;
        }
        self.path.push(name);
        self.stack.push((0, 0));
    }

    pub(crate) fn span_count(&mut self, flits: u64, allocs: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.0 += flits;
            top.1 += allocs;
        }
    }

    /// Never asserts: the differential only sends a surplus exit where the
    /// live profiler does not assert either (release builds).
    pub(crate) fn span_exit(&mut self) {
        let Some((flits, allocs)) = self.stack.pop() else {
            self.spans.unbalanced_exits += 1;
            return;
        };
        self.spans.record(&self.path, 0, flits, allocs);
        self.path.pop();
    }

    pub(crate) fn span_leaf(&mut self, name: &'static str, nanos: u128, flits: u64, allocs: u64) {
        self.path.push(name);
        self.spans.record(&self.path, nanos, flits, allocs);
        self.path.pop();
    }

    pub(crate) fn close_open_spans(&mut self) {
        while !self.stack.is_empty() {
            self.span_exit();
        }
    }

    pub(crate) fn span_depth(&self) -> usize {
        self.stack.len()
    }

    pub(crate) fn open_span_path(&self) -> Vec<&'static str> {
        self.path.clone()
    }

    pub(crate) fn truncated_enters(&self) -> u64 {
        self.spans.truncated_enters
    }

    pub(crate) fn unbalanced_exits(&self) -> u64 {
        self.spans.unbalanced_exits
    }

    /// Per-path addition; open frames of `other` are not merged.
    pub(crate) fn merge(&mut self, other: &RefProfiler) {
        for (path, s) in &other.spans.nodes {
            let node = self.spans.nodes.entry(path.clone()).or_default();
            node.nanos += s.nanos;
            node.calls += s.calls;
            node.flits += s.flits;
            node.allocs += s.allocs;
        }
        self.spans.truncated_enters += other.spans.truncated_enters;
        self.spans.unbalanced_exits += other.spans.unbalanced_exits;
    }

    /// Wall-clock nanoseconds recorded at one exact path.
    pub(crate) fn nanos(&self, path: &[&'static str]) -> Option<u128> {
        self.spans.nodes.get(path).map(|s| s.nanos)
    }

    /// The cycle-domain table, as `SpanTree::tree_table` renders it.
    pub(crate) fn tree_table(&self) -> String {
        let mut out = String::new();
        out.push_str("span tree (cycle-domain)\n");
        out.push_str(
            "  span                                        calls        flits       allocs\n",
        );
        for (path, s) in &self.spans.nodes {
            let indented = format!("{}{}", "  ".repeat(path.len() - 1), path[path.len() - 1]);
            let _ =
                writeln!(out, "  {indented:<40} {:>9} {:>12} {:>12}", s.calls, s.flits, s.allocs);
        }
        if self.spans.truncated_enters > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} span entries exceeded depth cap {MAX_SPAN_DEPTH} (folded)",
                self.spans.truncated_enters
            );
        }
        out
    }
}

mod differential {
    use super::RefProfiler;
    use crate::Profiler;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use std::time::Duration;

    /// Deepest nesting the sequences reach: past `MAX_SPAN_DEPTH`, so the
    /// depth-cap fold and its warning counter are exercised.
    const MAX_NEST: usize = 40;

    /// Fixed duration of every externally timed `span_leaf`.
    const LEAF_NANOS: u64 = 250;

    /// The eight span names, plus (index 8) a second copy of the first at
    /// another address: names are compared by content, not by pointer.
    fn name(i: u8) -> &'static str {
        const NAMES: [&str; 8] = [
            "step_cycle",
            "alloc.vc_sa",
            "link.traverse",
            "eject",
            "fault.inject",
            "route.compute",
            "epoch.update",
            "rl.decide",
        ];
        static ALIAS: OnceLock<&'static str> = OnceLock::new();
        match NAMES.get(usize::from(i % 9)) {
            Some(n) => n,
            None => ALIAS.get_or_init(|| String::from(NAMES[0]).leak()),
        }
    }

    /// One encoded call: `(selector, name, a, b)`.
    type Op = (u8, u8, u8, u8);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..16, 0u8..9, 0u8..4, 0u8..4), 0..500)
    }

    /// Applies one call to both profilers. Enters outnumber exits two to
    /// one, so long sequences climb to `MAX_NEST` and stay near it.
    fn apply(p: &mut Profiler, r: &mut RefProfiler, (sel, n, a, b): Op) {
        let depth = r.span_depth();
        match sel {
            0..=5 if depth < MAX_NEST => {
                p.span_enter(name(n));
                r.span_enter(name(n));
            }
            0..=8 if depth > 0 => {
                p.span_exit();
                r.span_exit();
            }
            // A surplus exit: counted in release builds, asserted in debug
            // builds (where it is left out).
            6..=8 if !cfg!(debug_assertions) => {
                p.span_exit();
                r.span_exit();
            }
            9 | 10 => {
                p.span_count(u64::from(a), u64::from(b));
                r.span_count(u64::from(a), u64::from(b));
            }
            // The leaf pair, optionally with a count charged and another
            // leaf opened while it is open: both belong to the enclosing
            // frame, not to the leaf.
            11..=13 => {
                let leaf = p.leaf_enter(name(n));
                if a & 1 != 0 {
                    p.span_count(1, 1);
                    r.span_count(1, 1);
                }
                if a & 2 != 0 {
                    let inner = p.leaf_enter(name(n.wrapping_add(b)));
                    p.leaf_exit(inner, 1);
                    r.span_leaf(name(n.wrapping_add(b)), 0, 1, 0);
                }
                p.leaf_exit(leaf, u64::from(b));
                r.span_leaf(name(n), 0, u64::from(b), 0);
            }
            _ => {
                let d = Duration::from_nanos(LEAF_NANOS);
                p.span_leaf(name(n), d, u64::from(a), u64::from(b));
                r.span_leaf(name(n), d.as_nanos(), u64::from(a), u64::from(b));
            }
        }
    }

    fn drive(p: &mut Profiler, r: &mut RefProfiler, ops: &[Op]) -> Result<(), TestCaseError> {
        for &op in ops {
            apply(p, r, op);
            prop_assert_eq!(p.span_depth(), r.span_depth());
            prop_assert_eq!(p.span_tree().truncated_enters(), r.truncated_enters());
            prop_assert_eq!(p.span_tree().unbalanced_exits(), r.unbalanced_exits());
        }
        Ok(())
    }

    /// Every compared surface, with whatever spans are still open.
    fn same(p: &Profiler, r: &RefProfiler) -> Result<(), TestCaseError> {
        prop_assert_eq!(p.span_tree().tree_table(), r.tree_table());
        prop_assert_eq!(p.span_tree().truncated_enters(), r.truncated_enters());
        prop_assert_eq!(p.span_tree().unbalanced_exits(), r.unbalanced_exits());
        prop_assert_eq!(p.open_span_path(), r.open_span_path());
        prop_assert_eq!(p.span_depth(), r.span_depth());
        Ok(())
    }

    /// Externally timed leaves stay exact: a path made only of `span_leaf`
    /// calls carries exactly the reference's nanoseconds.
    fn same_leaf_nanos(p: &Profiler, r: &RefProfiler) -> Result<(), TestCaseError> {
        for (path, s) in p.span_tree().iter() {
            let exact = r.nanos(path).expect("same paths");
            if exact == u128::from(s.calls) * u128::from(LEAF_NANOS) {
                prop_assert!(s.nanos == exact, "{path:?}: {} ns, exact {exact}", s.nanos);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One profiler, one random call sequence: equal mid-flight (spans
        /// still open) and after `close_open_spans`.
        #[test]
        fn profiler_matches_the_path_keyed_reference(ops in ops()) {
            let (mut p, mut r) = (Profiler::new(), RefProfiler::default());
            drive(&mut p, &mut r, &ops)?;
            same(&p, &r)?;
            same_leaf_nanos(&p, &r)?;
            p.close_open_spans();
            r.close_open_spans();
            same(&p, &r)?;
        }

        /// 2–5 profilers merged in a shuffled order (open frames left
        /// behind, as `merge` documents), then driven further: the merged
        /// profiler keeps aggregating into the merged paths.
        #[test]
        fn merged_profilers_match_the_reference(
            parts in prop::collection::vec((ops(), any::<u32>()), 2..6),
            more in ops(),
        ) {
            let mut built = Vec::new();
            for (ops, order) in &parts {
                let (mut p, mut r) = (Profiler::new(), RefProfiler::default());
                drive(&mut p, &mut r, ops)?;
                built.push((*order, p, r));
            }
            built.sort_by_key(|(order, _, _)| *order);
            let (mut p, mut r) = (Profiler::new(), RefProfiler::default());
            for (_, part_p, part_r) in &built {
                p.merge(part_p);
                r.merge(part_r);
                same(&p, &r)?;
            }
            drive(&mut p, &mut r, &more)?;
            same(&p, &r)?;
            p.close_open_spans();
            r.close_open_spans();
            same(&p, &r)?;
        }
    }
}
