//! Offline trace replay (the Netrace replay path).
//!
//! [`WorkloadSpec::replay`] makes a captured trace a workload: its
//! [`TraceReplay`] feeds the [`crate::TraceRecord`]s back into a simulation,
//! preserving the recorded injection times as *earliest* injection times and
//! honoring the same per-node dependency window as the live generator: a
//! node with too many packets in flight stalls, shifting its remaining trace
//! later — exactly Netrace's dependency-driven behavior.

use crate::trace::TraceRecord;
use crate::workload::{Workload, WorkloadSpec};
use std::collections::VecDeque;

/// Dependency window of a replayed trace unless the caller overrides it
/// (the PARSEC profiles' window).
const REPLAY_WINDOW: usize = 12;

impl WorkloadSpec {
    /// A workload that replays `records` (any order) on a `nodes`-node mesh,
    /// named `name`, with a dependency window of 12 packets.
    ///
    /// # Errors
    ///
    /// Names the first record whose source or destination is not a node of
    /// the mesh.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_traffic::{capture_trace, Workload, WorkloadSpec};
    ///
    /// let trace = capture_trace(WorkloadSpec::uniform(0.1, 3), 4, 4, 7, 10_000);
    /// let spec = WorkloadSpec::replay("demo", trace, 16).expect("records fit the mesh");
    /// let mut replay = spec.into_workload(4, 4, 0);
    /// let first = (0..16).find_map(|n| replay.poll(10_000, n, 0));
    /// assert!(first.is_some());
    /// ```
    pub fn replay(name: &str, records: Vec<TraceRecord>, nodes: usize) -> Result<Self, String> {
        let outside = records.iter().enumerate().find(|(_, r)| r.src >= nodes || r.dest >= nodes);
        if let Some((i, r)) = outside {
            return Err(format!("record {i} is outside the mesh of {nodes} nodes: {r:?}"));
        }
        Ok(WorkloadSpec {
            name: name.to_owned(),
            window: REPLAY_WINDOW,
            trace: Some(records.into()),
            ..WorkloadSpec::uniform(0.0, 0)
        })
    }
}

/// Replays a captured trace as a simulation workload.
#[derive(Debug, Clone)]
pub(crate) struct TraceReplay {
    name: String,
    /// Records not yet injected, per source node, in recorded-time order.
    queues: Vec<VecDeque<TraceRecord>>,
    /// Per-node cap on in-flight packets; a node at the cap stalls, which
    /// shifts the rest of its trace later.
    window: usize,
}

impl TraceReplay {
    /// Builds a replayer for a `nodes`-node network from `records`
    /// (any order; they are distributed per source and sorted by time).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or a record names a node outside the mesh
    /// ([`WorkloadSpec::replay`] checked them against the mesh it was given).
    pub(crate) fn new(name: &str, records: &[TraceRecord], nodes: usize, window: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        let mut queues = vec![VecDeque::new(); nodes];
        for r in records {
            assert!(r.src < nodes && r.dest < nodes, "record outside the mesh of {nodes} nodes");
            queues[r.src].push_back(*r);
        }
        for q in &mut queues {
            q.make_contiguous().sort_by_key(|r| r.cycle);
        }
        TraceReplay { name: name.to_owned(), queues, window }
    }
}

impl Workload for TraceReplay {
    fn poll(&mut self, cycle: u64, node: usize, outstanding: usize) -> Option<usize> {
        if outstanding >= self.window {
            return None;
        }
        let q = &mut self.queues[node];
        match q.front() {
            Some(r) if r.cycle <= cycle => q.pop_front().map(|r| r.dest),
            _ => None,
        }
    }

    fn is_exhausted(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, src: usize, dest: usize) -> TraceRecord {
        TraceRecord { cycle, src, dest, size_flits: 4 }
    }

    fn replay(records: &[TraceRecord], window: usize) -> TraceReplay {
        TraceReplay::new("t", records, 4, window)
    }

    #[test]
    fn respects_recorded_times() {
        let mut r = replay(&[rec(10, 0, 1), rec(20, 0, 2)], 8);
        assert_eq!(r.poll(5, 0, 0), None);
        assert_eq!(r.poll(10, 0, 0), Some(1));
        assert_eq!(r.poll(10, 0, 0), None, "second record not due yet");
        assert_eq!(r.poll(25, 0, 0), Some(2));
        assert!(r.is_exhausted());
    }

    #[test]
    fn window_stalls_injection() {
        let mut r = replay(&[rec(0, 1, 2)], 2);
        assert_eq!(r.poll(5, 1, 2), None, "window full");
        assert_eq!(r.poll(5, 1, 1), Some(2));
    }

    #[test]
    fn per_node_queues_are_independent() {
        let mut r = replay(&[rec(0, 0, 3), rec(0, 1, 2)], 8);
        assert_eq!(r.poll(0, 1, 0), Some(2));
        assert!(!r.is_exhausted());
        assert_eq!(r.poll(0, 0, 0), Some(3));
        assert!(r.is_exhausted());
    }

    #[test]
    fn unsorted_input_is_sorted_per_node() {
        let mut r = replay(&[rec(20, 0, 2), rec(10, 0, 1)], 8);
        assert_eq!(r.poll(50, 0, 0), Some(1), "earlier record first");
        assert_eq!(r.poll(50, 0, 0), Some(2));
    }

    #[test]
    #[should_panic(expected = "record 1 is outside the mesh of 4 nodes")]
    fn out_of_range_record_rejected() {
        WorkloadSpec::replay("t", vec![rec(0, 1, 0), rec(0, 0, 9)], 4).unwrap();
    }

    #[test]
    fn replay_spec_drives_a_trace_replay() {
        let spec = WorkloadSpec::replay("t", vec![rec(3, 2, 1)], 4).expect("records fit the mesh");
        assert_eq!((spec.name.as_str(), spec.window), ("t", 12));
        let mut w = WorkloadSpec { window: 1, ..spec }.into_workload(2, 2, 0);
        assert_eq!(w.poll(3, 2, 1), None, "window of 1 full");
        assert_eq!(w.poll(3, 2, 0), Some(1));
        assert!(w.is_exhausted());
    }
}
