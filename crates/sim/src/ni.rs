//! Network interfaces: per-node injection queues and reassembly buffers,
//! plus the NI part of the occupancy index (the set of non-empty injection
//! queues).

use crate::bitset::BitSet;
use crate::flit::Flit;
use std::collections::VecDeque;
use std::ops::Index;

/// Per-packet reassembly state at a destination NI.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RecvState {
    pub(crate) flits: u8,
    pub(crate) flips: u32,
    pub(crate) crc_failed: bool,
}

/// A network interface: injection queue and reassembly buffers.
#[derive(Debug, Default, Clone)]
pub(crate) struct Ni {
    pub(crate) inject: VecDeque<Flit>,
    /// Reassembly state per packet id; a handful at a time, so a scan beats a map.
    pub(crate) recv: Vec<(u64, RecvState)>,
}

/// All NIs of a mesh. Indexing gives read access; injection queues change
/// only through [`Nis::extend`], [`Nis::pop_front`] and
/// [`Nis::purge_packet`], each of which keeps the non-empty set in step, so
/// the index cannot drift from the queues.
#[derive(Debug, Clone)]
pub(crate) struct Nis {
    nis: Vec<Ni>,
    /// Nodes whose injection queue holds at least one flit.
    waiting: BitSet,
}

impl Index<usize> for Nis {
    type Output = Ni;

    fn index(&self, node: usize) -> &Ni {
        &self.nis[node]
    }
}

impl Nis {
    pub(crate) fn new(nodes: usize) -> Self {
        Nis { nis: vec![Ni::default(); nodes], waiting: BitSet::new(nodes) }
    }

    /// Whether `node`'s injection queue is non-empty.
    #[inline]
    pub(crate) fn waiting(&self, node: usize) -> bool {
        self.waiting.contains(node)
    }

    /// The first node `>= from` with a non-empty injection queue.
    #[inline]
    pub(crate) fn next_waiting(&self, from: usize) -> Option<usize> {
        self.waiting.next_at_or_after(from)
    }

    /// Appends `flits` to the back of `node`'s injection queue.
    pub(crate) fn extend(&mut self, node: usize, flits: impl IntoIterator<Item = Flit>) {
        let queue = &mut self.nis[node].inject;
        queue.extend(flits);
        self.waiting.set(node, !queue.is_empty());
    }

    /// Removes the front flit of `node`'s injection queue.
    pub(crate) fn pop_front(&mut self, node: usize) -> Option<Flit> {
        let queue = &mut self.nis[node].inject;
        let flit = queue.pop_front();
        self.waiting.set(node, !queue.is_empty());
        flit
    }

    /// The reassembly buffers of `node` (not part of the index).
    pub(crate) fn recv_mut(&mut self, node: usize) -> &mut Vec<(u64, RecvState)> {
        &mut self.nis[node].recv
    }

    /// Removes every queued flit and all reassembly state of `packet`.
    pub(crate) fn purge_packet(&mut self, packet: u64) {
        for (node, ni) in self.nis.iter_mut().enumerate() {
            if !ni.inject.is_empty() {
                ni.inject.retain(|f| f.packet_id != packet);
                self.waiting.set(node, !ni.inject.is_empty());
            }
            ni.recv.retain(|&(p, _)| p != packet);
        }
    }

    /// Compares the non-empty set with the queues; `Some(what)` names the
    /// first mismatch.
    pub(crate) fn index_drift(&self) -> Option<String> {
        let node = (0..self.nis.len())
            .find(|&n| self.waiting.contains(n) == self.nis[n].inject.is_empty())?;
        Some(format!("NI {node}: waiting bit vs {} flit(s) queued", self.nis[node].inject.len()))
    }
}
