//! Inter-router channels with on-link storage (MFAC / iDEAL / elastic
//! buffers) and relaxed-timing support.
//!
//! A channel is a FIFO of in-flight flits, kept in one contiguous buffer
//! that grows on first use and never past `capacity` (at most 8 stages in
//! the paper's designs), so the BST scan walks a slice and removing a flit
//! moves a handful of elements. Entry stamps each flit with the
//! cycle at which it reaches the downstream end (`ready_at`): one cycle for
//! normal links, two under relaxed timing (operation mode 4). A plain wire
//! (`channel_capacity = 0` designs) still pipelines one in-flight flit.
//!
//! When a per-hop decode detects an uncorrectable error, the flit is *not*
//! dropped: the copy held in the re-transmission buffer (MFAC upper link or
//! the upstream router buffer) is resent, modeled by pushing the head flit's
//! `ready_at` out by the re-transmission round-trip latency.
//!
//! [`Links`] owns all channels of a mesh and keeps the link half of the
//! occupancy index (inbound-flit counts, non-empty channel set) in step
//! with them.

use crate::bitset::BitSet;
use crate::flit::{Cycle, Flit};
use crate::topology::{slot, unslot, Mesh, Port, DIRS};

/// One directed inter-router channel.
#[derive(Debug, Clone)]
pub struct Channel {
    queue: Vec<(Flit, Cycle)>,
    capacity: usize,
    /// Relaxed-timing mode (set by the upstream router's directive).
    pub relaxed: bool,
}

impl Channel {
    /// Creates a channel with `channel_capacity` storage stages (a value of
    /// 0 becomes a single wire latch).
    pub fn new(channel_capacity: usize) -> Self {
        Channel { queue: Vec::new(), capacity: channel_capacity.max(1), relaxed: false }
    }

    /// Flits currently on the channel.
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Whether a new flit can enter this cycle.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Link traversal latency under the current timing mode.
    pub fn latency(&self) -> u64 {
        if self.relaxed {
            2
        } else {
            1
        }
    }

    /// Pushes a flit with `extra` additional cycles of traversal latency
    /// (the bypass switch path adds a mux/latch stage).
    ///
    /// # Panics
    ///
    /// Panics if the channel is full.
    pub fn push_delayed(&mut self, flit: Flit, now: Cycle, extra: u64) {
        assert!(self.has_space(), "channel overflow");
        self.queue.push((flit, now + self.latency() + extra));
    }

    /// The head flit, if it has reached the downstream end by `now`.
    pub fn peek_ready(&self, now: Cycle) -> Option<&Flit> {
        match self.queue.first() {
            Some((flit, ready)) if *ready <= now => Some(flit),
            _ => None,
        }
    }

    /// Finds the first flit (front to back) that has arrived by `now`, is
    /// not preceded by a flit of the same packet (per-packet order must be
    /// preserved), and satisfies `deliverable`. Returns its index.
    ///
    /// This is the paper's dynamic buffer allocation via the unified BST
    /// (§3.1.2): blocked packets do not head-of-line-block other packets
    /// stored on the channel.
    pub fn scan_deliverable<F>(&self, now: Cycle, mut deliverable: F) -> Option<usize>
    where
        F: FnMut(&Flit) -> bool,
    {
        // The queue holds at most `capacity` flits, so looking back over the
        // prefix for an earlier flit of the same packet beats keeping a set.
        self.queue.iter().enumerate().position(|(i, (flit, ready))| {
            *ready <= now
                && !self.queue[..i].iter().any(|(f, _)| f.packet_id == flit.packet_id)
                && deliverable(flit)
        })
    }

    /// Flit at `index` (used with [`Channel::scan_deliverable`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> &Flit {
        &self.queue[index].0
    }

    /// The flits on the channel, front to back.
    pub fn flits(&self) -> impl Iterator<Item = &Flit> {
        self.queue.iter().map(|(f, _)| f)
    }

    /// Removes and returns the flit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_at(&mut self, index: usize) -> Flit {
        self.queue.remove(index).0
    }

    /// Delays the flit at `index` by `delay` cycles (per-hop NACK
    /// re-transmission).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn delay_at(&mut self, index: usize, now: Cycle, delay: u64) {
        let entry = &mut self.queue[index];
        entry.1 = now + delay;
        entry.0.retx += 1;
        // The re-transmitted copy comes from the clean re-transmission
        // buffer, so accumulated codeword corruption is gone.
        entry.0.hop_flips = 0;
    }

    /// Removes every flit of `packet` (hard-fault salvage/drop support).
    /// Returns the number of flits removed.
    pub fn purge_packet(&mut self, packet: u64) -> usize {
        let before = self.queue.len();
        self.queue.retain(|(f, _)| f.packet_id != packet);
        before - self.queue.len()
    }
}

/// Every inter-router channel of a mesh, indexed by the slot of its upstream
/// `(router, direction)` (`None` at mesh boundaries), together with the link
/// half of the occupancy index: per-router counts of flits on incoming
/// channels and the set of non-empty channels.
///
/// `Links` is the only owner of the channels: flits enter and leave through
/// its methods, each of which updates the index in the same call, so the
/// index cannot drift from the queues. Readers get `&Channel`.
#[derive(Debug, Clone)]
pub(crate) struct Links {
    channels: Vec<Option<Channel>>,
    /// Downstream router of each channel slot (unused at boundaries).
    dest: Vec<u32>,
    /// Flits on the channels feeding each router.
    inbound: Vec<u32>,
    /// Channel slots holding at least one flit.
    occupied: BitSet,
}

impl Links {
    /// Empty channels of `capacity` stages for every link of `mesh`.
    pub(crate) fn new(mesh: &Mesh, capacity: usize) -> Self {
        let n = mesh.nodes();
        let mut channels = Vec::with_capacity(n * DIRS);
        let mut dest = Vec::with_capacity(n * DIRS);
        for (r, dir) in (0..n * DIRS).map(unslot) {
            let down = mesh.neighbor(r, dir);
            channels.push(down.map(|_| Channel::new(capacity)));
            dest.push(down.unwrap_or(r) as u32);
        }
        Links { channels, dest, inbound: vec![0; n], occupied: BitSet::new(n * DIRS) }
    }

    /// The channel in slot `ci`, if the slot is a link.
    #[inline]
    pub(crate) fn get(&self, ci: usize) -> Option<&Channel> {
        self.channels[ci].as_ref()
    }

    /// Whether slot `ci` is a link with room for one more flit.
    #[inline]
    pub(crate) fn has_space(&self, ci: usize) -> bool {
        matches!(&self.channels[ci], Some(ch) if ch.has_space())
    }

    /// Flits on the channels feeding router `r`.
    #[inline]
    pub(crate) fn inbound(&self, r: usize) -> usize {
        self.inbound[r] as usize
    }

    /// The first non-empty channel slot `>= from` (see
    /// [`BitSet::next_at_or_after`] for the mid-pass semantics).
    #[inline]
    pub(crate) fn next_occupied(&self, from: usize) -> Option<usize> {
        self.occupied.next_at_or_after(from)
    }

    /// The routers at the `(upstream, downstream)` ends of channel `ci`.
    #[inline]
    pub(crate) fn ends(&self, ci: usize) -> (usize, usize) {
        (unslot(ci).0, self.dest[ci] as usize)
    }

    /// The channel feeding input port `port` of router `r`, if one does.
    pub(crate) fn feeding(&self, r: usize, port: Port) -> Option<usize> {
        let out = (port != Port::Local).then(|| slot(r, port))?;
        self.channels[out].as_ref().map(|_| slot(self.dest[out] as usize, port.opposite()))
    }

    /// Every channel, as `(slot, channel)` in slot order.
    pub(crate) fn channels(&self) -> impl Iterator<Item = (usize, &Channel)> {
        self.channels.iter().enumerate().filter_map(|(ci, ch)| Some((ci, ch.as_ref()?)))
    }

    /// Every flit on every channel, as `(slot, flit)` in slot order.
    pub(crate) fn flits(&self) -> impl Iterator<Item = (usize, &Flit)> {
        self.channels().flat_map(|(ci, ch)| ch.flits().map(move |f| (ci, f)))
    }

    fn channel_mut(&mut self, ci: usize) -> &mut Channel {
        self.channels[ci].as_mut().expect("slot is a link")
    }

    fn note_removed(&mut self, ci: usize, removed: usize) {
        self.inbound[self.dest[ci] as usize] -= removed as u32;
        if self.get(ci).is_some_and(|ch| ch.occupancy() == 0) {
            self.occupied.set(ci, false);
        }
    }

    /// [`Channel::push_delayed`] on slot `ci`.
    pub(crate) fn push_delayed(&mut self, ci: usize, flit: Flit, now: Cycle, extra: u64) {
        self.channel_mut(ci).push_delayed(flit, now, extra);
        self.inbound[self.dest[ci] as usize] += 1;
        self.occupied.set(ci, true);
    }

    /// [`Channel::remove_at`] on slot `ci`.
    pub(crate) fn remove_at(&mut self, ci: usize, index: usize) -> Flit {
        let flit = self.channel_mut(ci).remove_at(index);
        self.note_removed(ci, 1);
        flit
    }

    /// [`Channel::delay_at`] on slot `ci` (moves no flit).
    pub(crate) fn delay_at(&mut self, ci: usize, index: usize, now: Cycle, delay: u64) {
        self.channel_mut(ci).delay_at(index, now, delay);
    }

    /// Sets the timing mode of slot `ci` if it is a link.
    pub(crate) fn set_relaxed(&mut self, ci: usize, relaxed: bool) {
        if let Some(ch) = self.channels[ci].as_mut() {
            ch.relaxed = relaxed;
        }
    }

    /// Removes every flit of `packet` from every channel; returns the
    /// number removed. Only non-empty channels can hold one.
    pub(crate) fn purge_packet(&mut self, packet: u64) -> usize {
        let mut total = 0;
        let mut from = 0;
        while let Some(ci) = self.occupied.next_at_or_after(from) {
            from = ci + 1;
            let removed = self.channel_mut(ci).purge_packet(packet);
            if removed > 0 {
                self.note_removed(ci, removed);
                total += removed;
            }
        }
        total
    }

    /// Compares the index with a recount of the queues; `Some(what)` names
    /// the first mismatch.
    pub(crate) fn index_drift(&self) -> Option<String> {
        let mut inbound = vec![0u32; self.inbound.len()];
        for (ci, slot) in self.channels.iter().enumerate() {
            let occ = slot.as_ref().map_or(0, Channel::occupancy);
            inbound[self.dest[ci] as usize] += occ as u32;
            if self.occupied.contains(ci) != (occ > 0) {
                return Some(format!("channel slot {ci}: occupied bit vs {occ} flit(s) queued"));
            }
        }
        let r = (0..inbound.len()).find(|&r| inbound[r] != self.inbound[r])?;
        Some(format!("router {r}: inbound count {} vs {} recounted", self.inbound[r], inbound[r]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;
    use proptest::prelude::*;

    fn flit(id: u64) -> Flit {
        let mut f = make_packet(id, id * 4, 0, 1, 0)[0];
        f.id = id;
        f
    }

    #[test]
    fn wire_latch_pipelines_one_flit() {
        let mut ch = Channel::new(0);
        assert!(ch.has_space());
        ch.push_delayed(flit(1), 10, 0);
        assert!(!ch.has_space());
        assert!(ch.peek_ready(10).is_none(), "one-cycle latency");
        assert!(ch.peek_ready(11).is_some());
        let f = ch.remove_at(0);
        assert_eq!(f.packet_id, 1);
        assert!(ch.has_space());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut ch = Channel::new(4);
        for i in 0..4 {
            ch.push_delayed(flit(i), i, 0);
        }
        for i in 0..4 {
            assert_eq!(ch.peek_ready(100).map(|f| f.packet_id), Some(i));
            assert_eq!(ch.remove_at(0).packet_id, i);
        }
    }

    #[test]
    fn relaxed_mode_doubles_latency() {
        let mut ch = Channel::new(2);
        ch.relaxed = true;
        ch.push_delayed(flit(1), 0, 0);
        assert!(ch.peek_ready(1).is_none());
        assert!(ch.peek_ready(2).is_some());
    }

    #[test]
    #[should_panic(expected = "channel overflow")]
    fn overflow_panics() {
        let mut ch = Channel::new(1);
        ch.push_delayed(flit(1), 0, 0);
        ch.push_delayed(flit(2), 0, 0);
    }

    #[test]
    fn scan_skips_blocked_packets_but_preserves_per_packet_order() {
        let mut ch = Channel::new(8);
        // Packet 1: head then body. Packet 2: head. All ready.
        let p1 = make_packet(1, 0, 0, 1, 0);
        let p2 = make_packet(2, 10, 0, 1, 0);
        ch.push_delayed(p1[0], 0, 0); // idx 0: P1 head
        ch.push_delayed(p1[1], 0, 0); // idx 1: P1 body
        ch.push_delayed(p2[0], 0, 0); // idx 2: P2 head

        // Predicate rejects P1 entirely: the scan must NOT return P1's body
        // (same-packet order) but may return P2's head.
        let idx = ch.scan_deliverable(10, |f| f.packet_id != 1);
        assert_eq!(idx, Some(2));
        // Predicate accepts everything: the front wins.
        let idx = ch.scan_deliverable(10, |_| true);
        assert_eq!(idx, Some(0));
    }

    #[test]
    fn scan_respects_ready_times() {
        let mut ch = Channel::new(4);
        ch.push_delayed(flit(1), 100, 0); // ready at 101
        assert_eq!(ch.scan_deliverable(100, |_| true), None);
        assert_eq!(ch.scan_deliverable(101, |_| true), Some(0));
    }

    #[test]
    fn remove_at_preserves_remaining_order() {
        let mut ch = Channel::new(4);
        for i in 0..3 {
            ch.push_delayed(flit(i), 0, 0);
        }
        let f = ch.remove_at(1);
        assert_eq!(f.packet_id, 1);
        assert_eq!(ch.get(0).packet_id, 0);
        assert_eq!(ch.get(1).packet_id, 2);
        assert_eq!(ch.occupancy(), 2);
    }

    #[test]
    fn delay_at_clears_codeword_corruption() {
        let mut ch = Channel::new(2);
        let mut f = flit(1);
        f.hop_flips = 3;
        ch.push_delayed(f, 0, 0);
        ch.delay_at(0, 1, 4);
        assert_eq!(ch.get(0).hop_flips, 0, "retransmitted copy is clean");
        assert_eq!(ch.get(0).retx, 1);
        assert!(ch.peek_ready(4).is_none(), "the copy re-traverses the link");
        assert!(ch.peek_ready(5).is_some());
    }

    #[test]
    fn links_index_follows_every_entry_and_exit() {
        // 2x2 mesh: slot 0 is router 0's X+ link into router 1.
        let mesh = Mesh::new(2, 2);
        let mut links = Links::new(&mesh, 4);
        let ci = Port::XPlus.index();
        assert!(links.get(Port::XMinus.index()).is_none(), "router 0 has no X- link");
        assert_eq!(links.next_occupied(0), None);
        let p1 = make_packet(1, 0, 0, 1, 0);
        let p2 = make_packet(2, 4, 0, 1, 0);
        links.push_delayed(ci, p1[0], 0, 0);
        links.push_delayed(ci, p1[1], 0, 1);
        links.push_delayed(ci, p2[0], 0, 0);
        assert_eq!(links.inbound(1), 3);
        assert_eq!(links.inbound(0), 0);
        assert_eq!(links.next_occupied(0), Some(ci));
        assert_eq!(links.index_drift(), None);
        assert_eq!(links.remove_at(ci, 0).packet_id, 1);
        links.delay_at(ci, 0, 5, 3); // a NACK moves no flit
        assert_eq!(links.inbound(1), 2);
        assert_eq!(links.purge_packet(1), 1);
        assert_eq!(links.purge_packet(1), 0);
        assert_eq!(links.inbound(1), 1);
        assert_eq!(links.index_drift(), None);
        assert_eq!(links.remove_at(ci, 0).packet_id, 2);
        assert_eq!(links.inbound(1), 0);
        assert_eq!(links.next_occupied(0), None, "the emptied slot left the set");
        assert_eq!(links.index_drift(), None);
    }

    #[test]
    fn relaxed_toggle_affects_only_new_pushes() {
        let mut ch = Channel::new(4);
        ch.push_delayed(flit(1), 0, 0); // normal: ready at 1
        ch.relaxed = true;
        ch.push_delayed(flit(2), 0, 0); // relaxed: ready at 2
        assert!(ch.scan_deliverable(1, |f| f.packet_id == 2).is_none());
        assert!(ch.scan_deliverable(2, |f| f.packet_id == 2).is_some());
        assert!(ch.peek_ready(1).is_some(), "first flit unaffected");
    }

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
                ch.push_delayed(flit, pushed_at, 0);
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
}
