//! Offline trace replay (the Netrace replay path).
//!
//! [`TraceReplay`] feeds previously captured [`crate::TraceRecord`]s back
//! into a simulation, preserving the recorded injection times as *earliest*
//! injection times and honoring the same per-node dependency window as the
//! live generator: a node with too many packets in flight stalls, shifting
//! its remaining trace later — exactly Netrace's dependency-driven behavior.

use crate::trace::TraceRecord;
use crate::workload::Workload;
use std::collections::VecDeque;

/// Replays a captured trace as a simulation workload.
///
/// # Examples
///
/// ```
/// use noc_traffic::{capture_trace, TraceReplay, Workload, WorkloadSpec};
///
/// let trace = capture_trace(WorkloadSpec::uniform(0.1, 3), 4, 4, 7, 10_000);
/// let mut replay = TraceReplay::new("demo", &trace, 16, 8).expect("records fit the mesh");
/// let first = (0..16).find_map(|n| replay.poll(10_000, n, 0));
/// assert!(first.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TraceReplay {
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
    /// # Errors
    ///
    /// Names the first record whose source or destination is not a node of
    /// the mesh.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(
        name: &str,
        records: &[TraceRecord],
        nodes: usize,
        window: usize,
    ) -> Result<Self, String> {
        assert!(window > 0, "window must be nonzero");
        let mut queues = vec![VecDeque::new(); nodes];
        for (i, r) in records.iter().enumerate() {
            if r.src >= nodes || r.dest >= nodes {
                return Err(format!("record {i} is outside the mesh of {nodes} nodes: {r:?}"));
            }
            queues[r.src].push_back(*r);
        }
        for q in &mut queues {
            q.make_contiguous().sort_by_key(|r| r.cycle);
        }
        Ok(TraceReplay { name: name.to_owned(), queues, window })
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
        TraceReplay::new("t", records, 4, window).expect("records fit the mesh")
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
        replay(&[rec(0, 1, 0), rec(0, 0, 9)], 8);
    }
}
