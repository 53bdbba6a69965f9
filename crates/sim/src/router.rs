//! Router micro-architecture: VC input buffers, pipeline timing, gating
//! state, and per-epoch/per-step accounting.
//!
//! The router is input-buffered with atomic VC allocation (a VC holds one
//! packet from head arrival until tail departure). Pipeline depth is modeled
//! by stamping each buffered flit with the cycle at which it becomes
//! eligible for switch allocation: `pipeline_latency` cycles for a head flit
//! (RC → VA → SA → ST) and one cycle for body flits, which stream behind
//! their head at one per cycle.

use crate::config::RouterDirective;
use crate::flit::{Cycle, Flit, FlitKind, NO_VC};
use crate::topology::{Port, PORTS};
use noc_ecc::EccScheme;
use noc_power::ActivityCounters;
use std::collections::VecDeque;

/// Who holds a VC (atomic VC allocation: one packet from head arrival until
/// tail departure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VcState {
    /// No binding, no reservation, no flits: a new head may claim it.
    Free,
    /// Reserved by the upstream router's VA stage for a packet whose head
    /// flit has not arrived yet.
    Reserved,
    /// Bound to a packet until its tail departs.
    Bound,
}

/// One row of a router's VC table: everything allocation needs to know
/// about a VC without touching its flit queue.
#[derive(Debug, Clone, Copy)]
pub struct VcEntry {
    /// Cycle at which the head-of-queue flit becomes eligible for switch
    /// allocation (meaningful while `len > 0`).
    head_ready: Cycle,
    /// The reserving or bound packet (meaningful unless `Free`).
    owner: u64,
    /// Flits queued.
    len: u32,
    state: VcState,
    /// Whether the head-of-queue flit is the packet's head flit (it still
    /// has to win a downstream VC).
    head_queued: bool,
    /// Output port of the current packet (set by route computation).
    route: Port,
    /// Downstream input VC allocated to the current packet by this router's
    /// VA stage (consulted by body flits at switch allocation).
    out_vc: u8,
}

impl VcEntry {
    const EMPTY: VcEntry = VcEntry {
        head_ready: 0,
        owner: 0,
        len: 0,
        state: VcState::Free,
        head_queued: false,
        route: Port::Local,
        out_vc: NO_VC,
    };

    /// Whether a new packet's head flit may claim this VC (not bound, not
    /// reserved, empty) — also the per-VC condition for power-gating.
    pub fn available(&self) -> bool {
        self.state == VcState::Free
    }

    /// The packet bound to this VC, if any.
    pub fn packet(&self) -> Option<u64> {
        (self.state == VcState::Bound).then_some(self.owner)
    }

    /// The packet that reserved this VC from upstream, if its head flit has
    /// not arrived yet.
    pub fn reserved_by(&self) -> Option<u64> {
        (self.state == VcState::Reserved).then_some(self.owner)
    }

    /// Whether this VC is bound to `packet`.
    pub fn is_bound_to(&self, packet: u64) -> bool {
        self.state == VcState::Bound && self.owner == packet
    }

    /// Whether this VC is reserved for `packet`.
    pub fn is_reserved_for(&self, packet: u64) -> bool {
        self.state == VcState::Reserved && self.owner == packet
    }

    /// Current occupancy in flits.
    pub fn occupancy(&self) -> usize {
        self.len as usize
    }

    /// Output port of the bound packet.
    pub fn route(&self) -> Port {
        self.route
    }

    /// Downstream VC allocated to the current packet.
    pub fn out_vc(&self) -> u8 {
        self.out_vc
    }

    /// Whether the head-of-queue flit is the packet's head flit, which
    /// still has to win a downstream VC.
    pub(crate) fn holds_head(&self) -> bool {
        self.head_queued
    }
}

/// One continuation record — the BST route entry of a packet that passes
/// this router without a VC (through the bypass of the gated router, or the
/// continuation latch of the powered one): the output its head chose for
/// the flits arriving behind it through `in_port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Continuation {
    packet: u64,
    in_port: Port,
    out: Port,
}

/// One thing a packet holds of a router whether or not a flit of it is
/// queued there: a VC (reserved or bound) or a continuation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Holding {
    pub(crate) packet: u64,
    /// Input port the packet arrives through.
    pub(crate) in_port: Port,
    /// The output its head chose here; `None` for a reservation, whose head
    /// is still on the wire.
    pub(crate) out: Option<Port>,
    /// The VC table row, `None` for a continuation record.
    pub(crate) row: Option<usize>,
    /// Flits of the packet queued in that row.
    pub(crate) queued: usize,
}

impl std::fmt::Display for Holding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.row, self.out) {
            (Some(row), None) => write!(f, "row {row}: reserved for packet {}", self.packet),
            (Some(row), Some(_)) => write!(f, "row {row}: bound to packet {}", self.packet),
            (None, _) => {
                write!(
                    f,
                    "input {:?}: a continuation record of packet {}",
                    self.in_port, self.packet
                )
            }
        }
    }
}

/// Power-gating state of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateState {
    /// Fully powered.
    On,
    /// Power-gated; bypass (if enabled) carries traffic.
    Gated,
    /// Waking up; becomes `On` at the stored cycle. Bypass still works.
    Waking(Cycle),
}

/// Per-time-step statistics accumulated for control-policy observations.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Flits received per input port.
    pub in_flits: [u64; PORTS],
    /// Flits sent per output port.
    pub out_flits: [u64; PORTS],
    /// Sum over cycles of buffered flits (for buffer utilization).
    pub occupancy_sum: u64,
    /// Cycles observed.
    pub cycles: u64,
    /// Cycles spent gated.
    pub gated_cycles: u64,
    /// Histogram of per-traversal flip counts on outgoing links:
    /// `[0 flips, 1, 2, ≥3]`.
    pub error_hist: [u64; 4],
    /// Per-hop re-transmissions triggered on outgoing links.
    pub retransmissions: u64,
    /// Sum of end-to-end latencies of packets ejected at this router.
    pub ejected_latency_sum: u64,
    /// Packets ejected at this router.
    pub ejected_packets: u64,
    /// Sum over epochs of router power (mW) for averaging.
    pub power_mw_sum: f64,
    /// Epochs observed.
    pub epochs: u64,
}

/// One router instance.
///
/// VC state lives in one flat, port-major table (`port * vcs + vc`), the
/// readiness index: a [`VcEntry`] per VC plus four bitmasks over the table
/// that say what can move without looking at any queue. Bit `i` of
///
/// - `pending` — VC `i` holds flits, its head not yet known SA-eligible;
/// - `ready` — VC `i`'s head flit is SA-eligible (promoted from `pending`
///   by [`Router::promote_ready`], cleared when the flit is popped);
/// - `request[out]` — VC `i` is bound to a packet routed to output `out`;
/// - `free` — VC `i` is [`VcEntry::available`].
///
/// Only [`Router::enqueue`], [`Router::pop_granted`], [`Router::reserve`],
/// [`Router::rebind_route`] and [`Router::purge_packet`] change entries,
/// masks or queues, each updating all three in the same call, so they
/// cannot drift apart ([`Router::index_drift`] recounts them). Flit queues
/// are allocated on first use: most VCs of a lightly loaded mesh never
/// hold a flit.
///
/// Beside the table sit the continuation records: the output chosen by the
/// head of each packet passing through without a VC, written by that head
/// and erased by its tail ([`Router::note_continuation`]) or by
/// [`Router::purge_packet`]. A bound row's `route` and a record's `out`
/// together are every hop decision the router holds; body and tail flits
/// read them through [`Router::packet_route`] and never route again.
#[derive(Debug, Clone)]
pub struct Router {
    /// Node index.
    pub id: usize,
    vcs: usize,
    depth: u32,
    table: Vec<VcEntry>,
    /// Queued flits per table row, each with its SA-eligible cycle.
    queues: Vec<VecDeque<(Flit, Cycle)>>,
    pending: u64,
    ready: u64,
    free: u64,
    request: [u64; PORTS],
    /// Flits buffered across all input VCs — the router's share of the
    /// occupancy index.
    buffered: usize,
    /// Packets passing through without a VC, at most one record per
    /// `(in_port, packet)`; a handful at a time, so a scan beats a map.
    continuations: Vec<Continuation>,
    /// Gating state.
    pub gate: GateState,
    /// Consecutive idle cycles (for reactive gating).
    pub idle_cycles: u32,
    /// Active control directive.
    pub directive: RouterDirective,
    /// Round-robin pointer for switch allocation.
    pub sa_rr: usize,
    /// Round-robin pointer for the bypass switch.
    pub bypass_rr: usize,
    /// Per-epoch activity counters (drained by the power/thermal epoch).
    pub counters: ActivityCounters,
    /// Per-time-step statistics (drained by the control policy).
    pub step: StepStats,
}

/// Rows a VC table can have: one bit each in a 64-bit readiness mask.
pub(crate) const MAX_VC_ROWS: usize = u64::BITS as usize;

/// A mask of the `n` lowest bits.
fn low_bits(n: usize) -> u64 {
    if n >= MAX_VC_ROWS {
        !0
    } else {
        (1 << n) - 1
    }
}

/// The set bits of `mask` in ascending order.
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl Router {
    /// Creates a powered-on router with empty buffers.
    ///
    /// # Panics
    ///
    /// Panics if `PORTS * vcs` exceeds the 64 bits of a readiness mask.
    pub fn new(id: usize, vcs: usize, depth: usize, scheme: EccScheme) -> Self {
        let rows = PORTS * vcs;
        assert!(rows <= MAX_VC_ROWS, "{PORTS} ports x {vcs} VCs exceed {MAX_VC_ROWS} table rows");
        Router {
            id,
            vcs,
            depth: u32::try_from(depth).expect("VC depth fits u32"),
            table: vec![VcEntry::EMPTY; rows],
            queues: vec![VecDeque::new(); rows],
            pending: 0,
            ready: 0,
            free: low_bits(rows),
            request: [0; PORTS],
            buffered: 0,
            continuations: Vec::new(),
            gate: GateState::On,
            idle_cycles: 0,
            directive: RouterDirective::fixed(scheme),
            sa_rr: 0,
            bypass_rr: 0,
            counters: ActivityCounters::new(),
            step: StepStats::default(),
        }
    }

    /// VCs per input port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The table rows of input `port`, in VC order.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_vcs(&self, port: usize) -> &[VcEntry] {
        &self.table[port * self.vcs..(port + 1) * self.vcs]
    }

    /// The table row of VC `vc` of input `port`.
    pub fn vc(&self, port: usize, vc: usize) -> &VcEntry {
        &self.table[port * self.vcs + vc]
    }

    /// Head flit of VC `vc` of input `port` if it is eligible for switch
    /// allocation at `now` (read from the entry, not the masks, so it is
    /// right between promotions too). The allocator reference test's view.
    #[cfg(test)]
    pub fn sa_candidate(&self, port: usize, vc: usize, now: Cycle) -> Option<&Flit> {
        let i = port * self.vcs + vc;
        let e = &self.table[i];
        (e.len > 0 && e.head_ready <= now).then(|| &self.queues[i][0].0)
    }

    /// The table-row mask covering every VC of input `port`.
    pub(crate) fn port_mask(&self, port: usize) -> u64 {
        low_bits(self.vcs) << (port * self.vcs)
    }

    /// The lowest free VC of input `port`.
    pub fn free_vc(&self, port: usize) -> Option<usize> {
        let slice = (self.free >> (port * self.vcs)) & low_bits(self.vcs);
        (slice != 0).then(|| slice.trailing_zeros() as usize)
    }

    /// The VC of input `port` bound to `packet`, if any.
    pub fn bound_vc(&self, port: usize, packet: u64) -> Option<usize> {
        self.port_vcs(port).iter().position(|e| e.is_bound_to(packet))
    }

    /// The output the head of `packet` chose when it came in through input
    /// `port`: the route of the VC it bound there, else its continuation
    /// record. `None` when no head of the packet has passed that way.
    pub fn packet_route(&self, port: usize, packet: u64) -> Option<Port> {
        match self.bound_vc(port, packet) {
            Some(vc) => Some(self.vc(port, vc).route),
            None => self
                .continuations
                .iter()
                .find(|c| c.packet == packet && c.in_port.index() == port)
                .map(|c| c.out),
        }
    }

    /// A flit that holds no VC here leaves through `out`, having come in
    /// through `in_port`: the head writes the packet's continuation record,
    /// the tail erases it.
    pub(crate) fn note_continuation(&mut self, in_port: Port, flit: &Flit, out: Port) {
        match flit.kind {
            FlitKind::Head => {
                self.continuations.push(Continuation { packet: flit.packet_id, in_port, out });
            }
            FlitKind::Body => {}
            FlitKind::Tail => {
                self.continuations.retain(|c| (c.packet, c.in_port) != (flit.packet_id, in_port));
            }
        }
    }

    /// Everything packets hold of this router — reserved and bound VCs in
    /// row order, then continuation records — whether or not a flit of the
    /// packet is queued here.
    pub(crate) fn holdings(&self) -> impl Iterator<Item = Holding> + '_ {
        let rows = set_bits(!self.free & low_bits(self.table.len())).map(|i| {
            let e = &self.table[i];
            Holding {
                packet: e.owner,
                in_port: Port::from_index(i / self.vcs),
                out: (e.state == VcState::Bound).then_some(e.route),
                row: Some(i),
                queued: e.len as usize,
            }
        });
        rows.chain(self.continuations.iter().map(|c| Holding {
            packet: c.packet,
            in_port: c.in_port,
            out: Some(c.out),
            row: None,
            queued: 0,
        }))
    }

    /// The head flits parked at the front of a VC, still to win a downstream
    /// VC, as `(port, vc, head)`.
    pub(crate) fn parked_heads(&self) -> impl Iterator<Item = (usize, usize, &Flit)> {
        set_bits(self.pending | self.ready)
            .filter(|&i| self.table[i].head_queued)
            .map(|i| (i / self.vcs, i % self.vcs, &self.queues[i][0].0))
    }

    /// Every flit queued in any input VC.
    pub(crate) fn queued_flits(&self) -> impl Iterator<Item = &Flit> {
        set_bits(self.pending | self.ready).flat_map(|i| self.queues[i].iter().map(|(f, _)| f))
    }

    /// Whether VC `vc` of input `port` has room for one more flit: what a
    /// body or tail flit needs of its packet's VC.
    pub(crate) fn has_room(&self, port: usize, vc: usize) -> bool {
        self.vc(port, vc).len < self.depth
    }

    /// Enqueues `flit` into VC `vc` of input `port` with SA eligibility at
    /// `ready`.
    ///
    /// For head flits, binds the VC to the packet with output `route`.
    ///
    /// # Panics
    ///
    /// Panics if the VC has no space or (for heads) is not available.
    pub fn enqueue(&mut self, port: usize, vc: usize, flit: Flit, route: Port, ready: Cycle) {
        let i = port * self.vcs + vc;
        let bit = 1u64 << i;
        let e = &mut self.table[i];
        assert!(e.len < self.depth, "VC overflow");
        if flit.is_head() {
            assert!(
                e.available() || e.is_reserved_for(flit.packet_id),
                "VC not available for new packet"
            );
            e.state = VcState::Bound;
            e.owner = flit.packet_id;
            e.route = route;
            e.out_vc = NO_VC;
            self.free &= !bit;
            self.request[route.index()] |= bit;
        } else {
            assert!(e.is_bound_to(flit.packet_id), "body flit on wrong VC");
        }
        if e.len == 0 {
            e.head_ready = ready;
            e.head_queued = flit.is_head();
            self.pending |= bit;
        }
        e.len += 1;
        self.queues[i].push_back((flit, ready));
        self.buffered += 1;
    }

    /// Removes the head flit of VC `vc` of input `port` after a
    /// switch-allocation grant; a tail frees the VC.
    ///
    /// # Panics
    ///
    /// Panics if there is no eligible head flit.
    pub fn pop_granted(&mut self, port: usize, vc: usize, now: Cycle) -> Flit {
        let i = port * self.vcs + vc;
        let bit = 1u64 << i;
        let e = &mut self.table[i];
        assert!(e.len > 0 && e.head_ready <= now, "no granted flit to pop");
        let (flit, _) = self.queues[i].pop_front().expect("len counts the queue");
        e.len -= 1;
        e.head_queued = false;
        self.ready &= !bit;
        self.pending &= !bit;
        if let Some(&(_, next)) = self.queues[i].front() {
            e.head_ready = next;
            self.pending |= bit;
        }
        if flit.is_tail() {
            e.state = VcState::Free;
            self.free |= bit;
            self.request[e.route.index()] &= !bit;
        }
        self.buffered -= 1;
        flit
    }

    /// Reserves VC `vc` of input `port` for the in-flight head flit of
    /// `packet` (the upstream router's VA stage).
    ///
    /// # Panics
    ///
    /// Panics if the VC is not available.
    pub fn reserve(&mut self, port: usize, vc: usize, packet: u64) {
        let i = port * self.vcs + vc;
        let e = &mut self.table[i];
        assert!(e.available(), "reserving a busy VC");
        e.state = VcState::Reserved;
        e.owner = packet;
        self.free &= !(1u64 << i);
    }

    /// Records the downstream VC allocated to the packet bound to VC `vc`
    /// of input `port`.
    pub fn set_out_vc(&mut self, port: usize, vc: usize, out_vc: u8) {
        self.table[port * self.vcs + vc].out_vc = out_vc;
    }

    /// Rebinds the output route of the packet bound to VC `vc` of input
    /// `port` after a health-map rebuild. Only legal while the head flit is
    /// still queued (body flits must follow the path their head took).
    pub fn rebind_route(&mut self, port: usize, vc: usize, route: Port) {
        let i = port * self.vcs + vc;
        let e = &mut self.table[i];
        debug_assert!(e.state == VcState::Bound, "rebind on unbound VC");
        self.request[e.route.index()] &= !(1u64 << i);
        self.request[route.index()] |= 1u64 << i;
        e.route = route;
    }

    /// Moves every VC whose head flit has become SA-eligible by `now` from
    /// `pending` to `ready` — O(|pending|).
    pub(crate) fn promote_ready(&mut self, now: Cycle) {
        for i in set_bits(self.pending) {
            if self.table[i].head_ready <= now {
                self.pending &= !(1u64 << i);
                self.ready |= 1u64 << i;
            }
        }
    }

    /// The outputs some SA-eligible VC requests, bit `o` for output `o`.
    pub(crate) fn requested_outputs(&self) -> u32 {
        (0..PORTS).fold(0, |m, o| m | u32::from(self.request[o] & self.ready != 0) << o)
    }

    /// The SA-eligible VCs requesting output `out`, as a table-row mask.
    pub(crate) fn sa_requests(&self, out: Port) -> u64 {
        self.request[out.index()] & self.ready
    }

    /// Table row `row` (`port * vcs + vc`), as the masks number them.
    pub(crate) fn row(&self, row: usize) -> &VcEntry {
        &self.table[row]
    }

    /// Total flits buffered across all ports (O(1): the maintained count).
    pub fn occupancy(&self) -> usize {
        self.buffered
    }

    /// Whether all input buffers are empty.
    pub fn is_drained(&self) -> bool {
        self.occupancy() == 0
    }

    /// Whether every VC is idle (no flits, bindings, or reservations) —
    /// the safe condition for power-gating.
    pub fn is_gateable(&self) -> bool {
        self.free == low_bits(self.table.len())
    }

    /// Whether the router core is currently powered (not gated/waking).
    pub fn is_on(&self) -> bool {
        matches!(self.gate, GateState::On)
    }

    /// Whether the router is gated or still waking (bypass territory).
    pub fn is_gated_or_waking(&self) -> bool {
        !self.is_on()
    }

    /// Removes every trace of `packet` — queued flits, the binding, any
    /// reservation, its continuation records (hard-fault salvage/drop
    /// support). Returns the number of flits removed.
    pub fn purge_packet(&mut self, packet: u64) -> usize {
        self.continuations.retain(|c| c.packet != packet);
        let mut removed = 0;
        for i in set_bits(!self.free & low_bits(self.table.len())) {
            let e = &mut self.table[i];
            if e.owner != packet {
                continue;
            }
            let bit = 1u64 << i;
            if e.state == VcState::Bound {
                removed += e.len as usize;
                self.queues[i].clear();
                self.request[e.route.index()] &= !bit;
                self.pending &= !bit;
                self.ready &= !bit;
                *e = VcEntry::EMPTY;
            } else {
                e.state = VcState::Free;
            }
            self.free |= bit;
        }
        self.buffered -= removed;
        removed
    }

    /// Compares table, masks and buffered count with a recount from the
    /// flit queues at cycle `now`, and checks that no packet holds two
    /// routes on one input; `Some(what)` names the first mismatch.
    #[doc(hidden)]
    pub fn index_drift(&self, now: Cycle) -> Option<String> {
        let mut total = 0;
        for (i, (e, q)) in self.table.iter().zip(&self.queues).enumerate() {
            let at = |what: &str| Some(format!("router {} row {i}: {what}; {e:?}", self.id));
            let bit = |mask: u64| mask >> i & 1 == 1;
            total += q.len();
            if e.len as usize != q.len() {
                return at(&format!("len vs {} flit(s) queued", q.len()));
            }
            if let Some((head, ready)) = q.front() {
                if e.head_ready != *ready || e.head_queued != head.is_head() {
                    return at(&format!("head entry vs queued {:?} ready at {ready}", head.kind));
                }
                if q.iter().any(|(f, _)| !e.is_bound_to(f.packet_id)) {
                    return at("queued flit of a packet the VC is not bound to");
                }
            }
            if u8::from(bit(self.ready)) + u8::from(bit(self.pending)) != u8::from(!q.is_empty()) {
                return at("a VC holding flits is in exactly one of pending/ready, an empty one in neither");
            }
            if bit(self.ready) && e.head_ready > now {
                return at(&format!("ready bit before the head is eligible at cycle {now}"));
            }
            if bit(self.free) != e.available() {
                return at("free bit vs entry state");
            }
            for out in Port::ALL {
                let wants = e.state == VcState::Bound && e.route == out;
                if bit(self.request[out.index()]) != wants {
                    return at(&format!("request[{out:?}] bit vs bound route"));
                }
            }
        }
        for (i, c) in self.continuations.iter().enumerate() {
            let twice = |d: &Continuation| (d.packet, d.in_port) == (c.packet, c.in_port);
            if self.continuations[..i].iter().any(twice)
                || self.bound_vc(c.in_port.index(), c.packet).is_some()
            {
                return Some(format!(
                    "router {}: packet {} holds a second route on input {:?} beside {c:?}",
                    self.id, c.packet, c.in_port
                ));
            }
        }
        (total != self.buffered).then(|| {
            format!("router {}: buffered count {} vs {total} recounted", self.id, self.buffered)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;

    fn router() -> Router {
        Router::new(0, 2, 2, EccScheme::Secded)
    }

    #[test]
    fn head_claims_available_vc() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        let vc = r.free_vc(0).unwrap();
        r.enqueue(0, vc, flits[0], Port::XPlus, 4);
        assert_eq!(r.vc(0, vc).packet(), Some(1));
        assert_eq!(r.vc(0, vc).route(), Port::XPlus);
        assert!(!r.vc(0, vc).available());
        assert_eq!(r.index_drift(0), None);
    }

    #[test]
    fn body_follows_heads_vc() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        assert_eq!(r.bound_vc(0, flits[1].packet_id), Some(0));
        assert!(r.has_room(0, 0));
        // A different packet's body can't enter.
        let other = make_packet(2, 10, 0, 5, 0);
        assert_eq!(r.bound_vc(0, other[1].packet_id), None);
        // But its head can take the other VC.
        assert_eq!(r.free_vc(0), Some(1));
    }

    #[test]
    fn vc_depth_backpressures() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        r.enqueue(0, 0, flits[1], Port::XPlus, 5);
        // Depth 2: third flit refused on this VC.
        assert!(!r.has_room(0, 0));
    }

    #[test]
    fn sa_eligibility_respects_pipeline_timing() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        assert!(r.sa_candidate(0, 0, 3).is_none());
        assert!(r.sa_candidate(0, 0, 4).is_some());
        // The masks say the same once promoted, for the requested output only.
        r.promote_ready(3);
        assert_eq!(r.sa_requests(Port::XPlus), 0);
        assert_eq!(r.requested_outputs(), 0);
        r.promote_ready(4);
        assert_eq!(r.requested_outputs(), 1 << Port::XPlus.index());
        assert_eq!(r.sa_requests(Port::XPlus), 1);
        assert_eq!(r.sa_requests(Port::Local), 0);
        assert!(r.row(0).holds_head());
        assert_eq!(r.index_drift(4), None);
    }

    #[test]
    fn tail_departure_frees_vc() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 0);
        let _ = r.pop_granted(0, 0, 0);
        assert!(!r.vc(0, 0).available(), "packet still bound until tail");
        assert_eq!(r.free_vc(0), Some(1));
        r.enqueue(0, 0, flits[1], Port::XPlus, 0);
        r.enqueue(0, 0, flits[2], Port::XPlus, 0);
        let _ = r.pop_granted(0, 0, 0);
        let _ = r.pop_granted(0, 0, 0);
        r.enqueue(0, 0, flits[3], Port::XPlus, 0);
        assert!(!r.is_gateable());
        let tail = r.pop_granted(0, 0, 0);
        assert!(tail.is_tail());
        assert!(r.vc(0, 0).available(), "tail departure frees the VC");
        assert_eq!(r.free_vc(0), Some(0));
        assert!(r.is_drained() && r.is_gateable());
        assert_eq!(r.index_drift(0), None);
    }

    #[test]
    fn occupancy_tracks_flits() {
        let mut r = router();
        assert!(r.is_drained());
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(2, 1, flits[0], Port::Local, 0);
        assert_eq!(r.occupancy(), 1);
        assert!(!r.is_drained());
    }

    #[test]
    fn purge_keeps_the_buffered_count_equal_to_a_recount() {
        let mut r = router();
        let a = make_packet(1, 0, 0, 5, 0);
        let b = make_packet(2, 4, 0, 5, 0);
        r.enqueue(0, 0, a[0], Port::XPlus, 0);
        r.enqueue(0, 0, a[1], Port::XPlus, 1);
        r.enqueue(3, 1, b[0], Port::Local, 0);
        r.reserve(1, 0, 1); // a reservation holds no flit
        assert_eq!(r.free_vc(1), Some(1));
        assert_eq!(r.purge_packet(1), 2);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.index_drift(0), None);
        assert!(r.vc(1, 0).available(), "the reservation is gone too");
        assert_eq!(r.free_vc(1), Some(0), "and the dropped reservation is free again");
        assert_eq!(r.purge_packet(1), 0, "purging again removes nothing");
        let _ = r.pop_granted(3, 1, 0);
        assert!(r.is_drained() && !r.is_gateable(), "packet 2 still holds its VC");
        assert_eq!(r.index_drift(0), None);
    }

    #[test]
    fn continuation_record_lives_from_head_to_tail() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        assert_eq!(r.packet_route(1, 1), None, "no head has passed");
        r.note_continuation(Port::XMinus, &flits[0], Port::XPlus);
        r.note_continuation(Port::XMinus, &flits[1], Port::YPlus); // a body decides nothing
        assert_eq!(r.packet_route(1, 1), Some(Port::XPlus));
        assert_eq!(r.packet_route(0, 1), None, "the record is per input port");
        assert!(r.is_gateable(), "a record holds no VC");
        let held: Vec<Holding> = r.holdings().collect();
        assert_eq!((held.len(), held[0].packet, held[0].out), (1, 1, Some(Port::XPlus)));
        assert_eq!(r.index_drift(0), None);
        r.note_continuation(Port::XMinus, &flits[3], Port::XPlus);
        assert_eq!(r.packet_route(1, 1), None, "the tail erased it");
        // A bound VC answers first, and a purge forgets both.
        r.enqueue(1, 0, flits[0], Port::YMinus, 0);
        assert_eq!(r.packet_route(1, 1), Some(Port::YMinus));
        r.note_continuation(Port::Local, &flits[0], Port::XPlus);
        r.purge_packet(1);
        assert_eq!((r.packet_route(1, 1), r.packet_route(4, 1)), (None, None));
        assert_eq!(r.holdings().count(), 0);
    }

    #[test]
    fn rebind_moves_the_request_to_the_new_output() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(2, 1, flits[0], Port::XPlus, 0);
        r.promote_ready(0);
        r.rebind_route(2, 1, Port::YMinus);
        assert_eq!(r.vc(2, 1).route(), Port::YMinus);
        assert_eq!(r.sa_requests(Port::XPlus), 0);
        assert_eq!(r.sa_requests(Port::YMinus), 1 << (2 * 2 + 1));
        assert_eq!(r.index_drift(0), None);
    }

    #[test]
    fn index_drift_names_a_stale_mask() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        (r.pending, r.ready) = (0, 1); // claims eligibility the head does not have yet
        let drift = r.index_drift(3).expect("drift reported");
        assert!(drift.contains("router 0 row 0") && drift.contains("ready bit"), "{drift}");
    }

    #[test]
    fn gate_state_predicates() {
        let mut r = router();
        assert!(r.is_on());
        r.gate = GateState::Gated;
        assert!(r.is_gated_or_waking());
        r.gate = GateState::Waking(10);
        assert!(r.is_gated_or_waking());
        assert!(!r.is_on());
    }
}
