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
use crate::flit::{Cycle, Flit};
use crate::topology::{Port, PORTS};
use noc_ecc::EccScheme;
use noc_power::ActivityCounters;
use std::collections::VecDeque;

/// One virtual channel of an input port.
#[derive(Debug, Clone)]
pub struct InputVc {
    queue: VecDeque<(Flit, Cycle)>,
    depth: usize,
    /// Packet currently holding this VC (atomic VC allocation).
    packet: Option<u64>,
    /// Packet that has reserved this VC from the upstream router's VA stage
    /// but whose head flit has not yet arrived.
    reserved_by: Option<u64>,
    /// Output port of the current packet (set by route computation).
    route: Port,
    /// Downstream input VC allocated to the current packet by this router's
    /// VA stage (consulted by body flits at switch allocation).
    out_vc: u8,
}

impl InputVc {
    fn new(depth: usize) -> Self {
        InputVc {
            queue: VecDeque::new(),
            depth,
            packet: None,
            reserved_by: None,
            route: Port::Local,
            out_vc: crate::flit::NO_VC,
        }
    }

    /// Whether a new packet's head flit may claim this VC (not bound, not
    /// reserved, empty).
    pub fn available(&self) -> bool {
        self.packet.is_none() && self.reserved_by.is_none() && self.queue.is_empty()
    }

    /// Whether this VC is reserved for `packet`.
    pub fn is_reserved_for(&self, packet: u64) -> bool {
        self.reserved_by == Some(packet)
    }

    /// The reserving packet, if any (debugging aid).
    #[doc(hidden)]
    pub fn reserved_by_debug(&self) -> Option<u64> {
        self.reserved_by
    }

    /// Whether this VC is idle (no binding, no reservation, no flits) —
    /// the per-VC condition for power-gating the router.
    pub fn is_idle(&self) -> bool {
        self.available()
    }

    /// Reserves this VC for an in-flight head flit (upstream VA).
    ///
    /// # Panics
    ///
    /// Panics if the VC is not available.
    pub fn reserve(&mut self, packet: u64) {
        assert!(self.available(), "reserving a busy VC");
        self.reserved_by = Some(packet);
    }

    /// Downstream VC allocated to the current packet.
    pub fn out_vc(&self) -> u8 {
        self.out_vc
    }

    /// Records the downstream VC allocated to the current packet.
    pub fn set_out_vc(&mut self, vc: u8) {
        self.out_vc = vc;
    }

    /// Whether the VC has a free buffer slot.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Current occupancy in flits.
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// The packet bound to this VC, if any.
    pub fn packet(&self) -> Option<u64> {
        self.packet
    }

    /// Output port of the bound packet.
    pub fn route(&self) -> Port {
        self.route
    }

    /// Head flit if it is eligible for switch allocation at `now`.
    pub fn sa_candidate(&self, now: Cycle) -> Option<&Flit> {
        match self.queue.front() {
            Some((flit, ready)) if *ready <= now => Some(flit),
            _ => None,
        }
    }

    /// Iterates the queued flits in order (purge/diagnostic support).
    pub fn flits(&self) -> impl Iterator<Item = &Flit> {
        self.queue.iter().map(|(f, _)| f)
    }

    /// Removes every trace of `packet` from this VC: queued flits, the
    /// binding, and any reservation. Returns the number of flits removed.
    /// Reached only through [`Router::purge_packet`], which keeps the
    /// router's buffered-flit count in step.
    fn purge_packet(&mut self, packet: u64) -> usize {
        let mut removed = 0;
        if self.packet == Some(packet) {
            removed = self.queue.len();
            self.queue.clear();
            self.packet = None;
            self.out_vc = crate::flit::NO_VC;
            self.route = Port::Local;
        }
        if self.reserved_by == Some(packet) {
            self.reserved_by = None;
        }
        removed
    }

    /// Rebinds the output route of the bound packet after a health-map
    /// rebuild. Only legal while the head flit is still queued (body flits
    /// must follow the path their head already took).
    pub fn rebind_route(&mut self, route: Port) {
        debug_assert!(self.packet.is_some(), "rebind on unbound VC");
        self.route = route;
    }

    /// Removes the head flit after a switch-allocation grant (reached only
    /// through [`Router::pop_granted`]).
    fn pop_granted(&mut self, now: Cycle) -> Flit {
        match self.queue.front() {
            Some((_, ready)) if *ready <= now => {
                let (flit, _) = self.queue.pop_front().expect("head exists");
                if flit.is_tail() {
                    self.packet = None;
                }
                flit
            }
            _ => panic!("no granted flit to pop"),
        }
    }
}

/// One input port: a set of VCs.
#[derive(Debug, Clone)]
pub struct InputPort {
    vcs: Vec<InputVc>,
}

impl InputPort {
    fn new(vcs: usize, depth: usize) -> Self {
        InputPort { vcs: (0..vcs).map(|_| InputVc::new(depth)).collect() }
    }

    /// The VCs of this port.
    pub fn vcs(&self) -> &[InputVc] {
        &self.vcs
    }

    /// Mutable access to one VC.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn vc_mut(&mut self, vc: usize) -> &mut InputVc {
        &mut self.vcs[vc]
    }

    /// Total flits buffered on this port.
    pub fn occupancy(&self) -> usize {
        self.vcs.iter().map(InputVc::occupancy).sum()
    }

    /// Whether the given flit can be accepted right now: a head flit needs a
    /// free VC; a body/tail flit needs its packet's VC to have space.
    /// Returns the VC index it would enter.
    pub fn accept_target(&self, flit: &Flit) -> Option<usize> {
        if flit.is_head() {
            self.vcs.iter().position(InputVc::available)
        } else {
            self.vcs.iter().position(|vc| vc.packet() == Some(flit.packet_id) && vc.has_space())
        }
    }

    /// Enqueues `flit` into `vc` (reached only through
    /// [`Router::enqueue`]).
    fn enqueue(&mut self, vc: usize, flit: Flit, route: Port, ready: Cycle) {
        let slot = &mut self.vcs[vc];
        assert!(slot.has_space(), "VC overflow");
        if flit.is_head() {
            assert!(
                slot.available() || slot.is_reserved_for(flit.packet_id),
                "VC not available for new packet"
            );
            slot.reserved_by = None;
            slot.packet = Some(flit.packet_id);
            slot.route = route;
            slot.out_vc = crate::flit::NO_VC;
        } else {
            assert_eq!(slot.packet, Some(flit.packet_id), "body flit on wrong VC");
        }
        slot.queue.push_back((flit, ready));
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
#[derive(Debug, Clone)]
pub struct Router {
    /// Node index.
    pub id: usize,
    inputs: Vec<InputPort>,
    /// Flits buffered across all input VCs — the router's share of the
    /// occupancy index. Only [`Router::enqueue`], [`Router::pop_granted`]
    /// and [`Router::purge_packet`] add or remove flits, so it cannot drift
    /// from the queues.
    buffered: usize,
    /// Gating state.
    pub gate: GateState,
    /// Pending proactive gate request (waiting for buffers to drain).
    pub gate_pending: bool,
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

impl Router {
    /// Creates a powered-on router with empty buffers.
    pub fn new(id: usize, vcs: usize, depth: usize, scheme: EccScheme) -> Self {
        Router {
            id,
            inputs: (0..PORTS).map(|_| InputPort::new(vcs, depth)).collect(),
            buffered: 0,
            gate: GateState::On,
            gate_pending: false,
            idle_cycles: 0,
            directive: RouterDirective::fixed(scheme),
            sa_rr: 0,
            bypass_rr: 0,
            counters: ActivityCounters::new(),
            step: StepStats::default(),
        }
    }

    /// The input ports.
    pub fn inputs(&self) -> &[InputPort] {
        &self.inputs
    }

    /// Mutable access to one input port — for VC bookkeeping that moves no
    /// flit (reservations, `out_vc`, route rebinds). Flits enter and leave
    /// through [`Router::enqueue`] / [`Router::pop_granted`] /
    /// [`Router::purge_packet`] only.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn input_mut(&mut self, port: usize) -> &mut InputPort {
        &mut self.inputs[port]
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
        self.inputs[port].enqueue(vc, flit, route, ready);
        self.buffered += 1;
    }

    /// Removes the head flit of VC `vc` of input `port` after a
    /// switch-allocation grant.
    ///
    /// # Panics
    ///
    /// Panics if there is no eligible head flit.
    pub fn pop_granted(&mut self, port: usize, vc: usize, now: Cycle) -> Flit {
        let flit = self.inputs[port].vcs[vc].pop_granted(now);
        self.buffered -= 1;
        flit
    }

    /// Total flits buffered across all ports (O(1): the maintained count).
    pub fn occupancy(&self) -> usize {
        self.buffered
    }

    /// [`Router::occupancy`] recounted from the VC queues — what the
    /// occupancy-index consistency check compares the maintained count to.
    #[doc(hidden)]
    pub fn recount_occupancy(&self) -> usize {
        self.inputs.iter().map(InputPort::occupancy).sum()
    }

    /// Whether all input buffers are empty.
    pub fn is_drained(&self) -> bool {
        self.occupancy() == 0
    }

    /// Whether every VC is idle (no flits, bindings, or reservations) —
    /// the safe condition for power-gating.
    pub fn is_gateable(&self) -> bool {
        self.inputs.iter().all(|p| p.vcs().iter().all(InputVc::is_idle))
    }

    /// Whether the router core is currently powered (not gated/waking).
    pub fn is_on(&self) -> bool {
        matches!(self.gate, GateState::On)
    }

    /// Whether the router is gated or still waking (bypass territory).
    pub fn is_gated_or_waking(&self) -> bool {
        !self.is_on()
    }

    /// Removes every trace of `packet` from all input VCs (hard-fault
    /// salvage/drop support). Returns the number of flits removed.
    pub fn purge_packet(&mut self, packet: u64) -> usize {
        let removed: usize = self
            .inputs
            .iter_mut()
            .flat_map(|p| p.vcs.iter_mut())
            .map(|vc| vc.purge_packet(packet))
            .sum();
        self.buffered -= removed;
        removed
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
        let vc = r.inputs()[0].accept_target(&flits[0]).unwrap();
        r.enqueue(0, vc, flits[0], Port::XPlus, 4);
        let port = &r.inputs()[0];
        assert_eq!(port.vcs()[vc].packet(), Some(1));
        assert_eq!(port.vcs()[vc].route(), Port::XPlus);
        assert!(!port.vcs()[vc].available());
    }

    #[test]
    fn body_follows_heads_vc() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        let port = &r.inputs()[0];
        assert_eq!(port.accept_target(&flits[1]), Some(0));
        // A different packet's body can't enter.
        let other = make_packet(2, 10, 0, 5, 0);
        assert_eq!(port.accept_target(&other[1]), None);
        // But its head can take the other VC.
        assert_eq!(port.accept_target(&other[0]), Some(1));
    }

    #[test]
    fn vc_depth_backpressures() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        r.enqueue(0, 0, flits[1], Port::XPlus, 5);
        // Depth 2: third flit refused on this VC.
        assert_eq!(r.inputs()[0].accept_target(&flits[2]), None);
    }

    #[test]
    fn sa_eligibility_respects_pipeline_timing() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 4);
        let vc = &r.inputs()[0].vcs()[0];
        assert!(vc.sa_candidate(3).is_none());
        assert!(vc.sa_candidate(4).is_some());
    }

    #[test]
    fn tail_departure_frees_vc() {
        let mut r = router();
        let flits = make_packet(1, 0, 0, 5, 0);
        r.enqueue(0, 0, flits[0], Port::XPlus, 0);
        let _ = r.pop_granted(0, 0, 0);
        assert!(!r.inputs()[0].vcs()[0].available(), "packet still bound until tail");
        r.enqueue(0, 0, flits[1], Port::XPlus, 0);
        r.enqueue(0, 0, flits[2], Port::XPlus, 0);
        let _ = r.pop_granted(0, 0, 0);
        let _ = r.pop_granted(0, 0, 0);
        r.enqueue(0, 0, flits[3], Port::XPlus, 0);
        let tail = r.pop_granted(0, 0, 0);
        assert!(tail.is_tail());
        assert!(r.inputs()[0].vcs()[0].available(), "tail departure frees the VC");
        assert!(r.is_drained());
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
        r.input_mut(1).vc_mut(0).reserve(1); // a reservation holds no flit
        assert_eq!(r.purge_packet(1), 2);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.occupancy(), r.recount_occupancy());
        assert!(r.inputs()[1].vcs()[0].available(), "the reservation is gone too");
        assert_eq!(r.purge_packet(1), 0, "purging again removes nothing");
        let _ = r.pop_granted(3, 1, 0);
        assert!(r.is_drained());
        assert_eq!(r.recount_occupancy(), 0);
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
