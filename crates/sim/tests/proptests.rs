//! Property tests for the simulator's data structures.

use noc_sim::{make_packet, Channel, Cycle, Flit};
use proptest::prelude::*;

/// The `seen`-set formulation of `Channel::scan_deliverable` that the
/// allocation-free look-back replaced, kept as the reference: walk front to
/// back, skip any flit whose packet already appeared, return the first
/// arrived flit the predicate accepts.
fn scan_reference(
    queue: &[(Flit, Cycle)],
    now: Cycle,
    mut deliverable: impl FnMut(&Flit) -> bool,
) -> Option<usize> {
    let mut seen: Vec<u64> = Vec::new();
    for (i, (flit, ready)) in queue.iter().enumerate() {
        if seen.contains(&flit.packet_id) {
            continue;
        }
        seen.push(flit.packet_id);
        if *ready <= now && deliverable(flit) {
            return Some(i);
        }
    }
    None
}

proptest! {
    /// `scan_deliverable` picks the same flit as the reference — and asks
    /// the predicate about the same flits in the same order — for any
    /// queue (empty included), with packet ids drawn from a small range so
    /// they repeat, arbitrary arrival times and arbitrary predicates.
    #[test]
    fn scan_deliverable_matches_seen_set_reference(
        entries in prop::collection::vec((0u64..4, 0u8..4, 0u64..12), 0..10),
        accept in prop::collection::vec(any::<bool>(), 10),
        now in 0u64..14,
    ) {
        let mut ch = Channel::new(entries.len());
        let mut queue = Vec::new();
        for (i, &(packet, index, pushed_at)) in entries.iter().enumerate() {
            let mut flit = make_packet(packet, packet * 4, 0, 1, 0)[index as usize];
            flit.id = i as u64; // position in the queue, so the predicate can key on it
            ch.push(flit, pushed_at);
            queue.push((flit, pushed_at + ch.latency()));
        }
        let mut asked = Vec::new();
        let got = ch.scan_deliverable(now, |f| {
            asked.push(f.id);
            accept[f.id as usize]
        });
        let mut asked_ref = Vec::new();
        let want = scan_reference(&queue, now, |f| {
            asked_ref.push(f.id);
            accept[f.id as usize]
        });
        prop_assert_eq!(got, want);
        prop_assert_eq!(asked, asked_ref);
    }
}
