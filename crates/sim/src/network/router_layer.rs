//! The router layer: what happens *inside* a router each cycle — switch and
//! VC allocation at powered routers, the single-flit bypass latch at gated
//! ones, the input stage that takes flits off the links into powered ones
//! (phase 2a, the BST skip-scan), and the power-gating state machine.
//!
//! Owner mutated: [`Router`](crate::router::Router), through
//! `promote_ready`, `pop_granted`, `set_out_vc` and `reserve` (plus its
//! public gate/timer/counter fields); the bypass also pops its NI input with
//! `Nis::pop_front`. Flits leave a router through [`Fabric::forward`]
//! (`link_layer`) or [`Endpoints::eject`] (`ni_layer`) and come off a link
//! through [`Fabric::traverse`]: no channel is pushed to or popped here.

use super::link_layer::{Hop, Landing, Receiver, Sender};
use super::{Cx, Endpoints, Fabric};
use crate::flit::{Flit, NO_VC};
use crate::router::{set_bits, GateState};
use crate::topology::{slot, unslot, Port, PORTS};
use noc_ecc::EccScheme;
use noc_telemetry::{Event, GateEdge};

/// Cycles from a wake decision until the router is back on (Table 1 setup).
const WAKEUP_LATENCY: u64 = 8;
/// Consecutive idle cycles before a reactive gate (Table 1 setup).
const IDLE_GATE_THRESHOLD: u32 = 8;
/// Consecutive idle cycles before a proactive gate directive engages: the PG
/// controller never gates a busy router, mode 0 is advisory (Table 1 setup).
const FORCED_IDLE_THRESHOLD: u32 = 2;
/// Channel occupancy at which a directive-gated or MFAC router wakes, capped
/// at the channel's capacity: IntelliNoC rides out more pressure than CP
/// because the MFACs provide storage (paper §3.3; Table 1 setup).
const FORCED_WAKE_OCCUPANCY: usize = 6;
/// The same for any other gated router: CP/CPD's single-flit bypass latch
/// holds nothing more, so any arrival wakes it (paper §7.1).
const LATCH_WAKE_OCCUPANCY: usize = 1;

/// One switch-allocation grant: the head-of-queue flit of VC `vc` of input
/// `port` crosses to output `out`, bound for downstream VC `dvc` ([`NO_VC`]
/// when ejecting or when the downstream router takes no reservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SaGrant {
    port: usize,
    vc: usize,
    out: Port,
    dvc: u8,
}

impl Fabric {
    /// Phase 1: every live router moves flits internally — a powered one
    /// through switch allocation, a gated (or, with MFACs, waking) one
    /// through the bypass latch.
    pub(super) fn router_phase(&mut self, cx: &mut Cx, ends: &mut Endpoints) {
        for r in 0..self.routers.len() {
            if !cx.health.router_up(r) {
                continue; // dead routers do no work at all
            }
            if self.routers[r].is_on() {
                cx.probe.span_enter("alloc.vc_sa");
                self.sa_phase(cx, ends, r);
                cx.probe.span_exit();
            } else if cx.cfg.bypass_enabled {
                let waking = matches!(self.routers[r].gate, GateState::Waking(_));
                if !waking || cx.cfg.mfac {
                    cx.probe.span_enter("router.bypass");
                    self.bypass_phase(cx, ends, r);
                    cx.probe.span_exit();
                }
            }
        }
    }

    fn sa_phase(&mut self, cx: &mut Cx, ends: &mut Endpoints, r: usize) {
        let sa_base = self.routers[r].sa_rr;
        // The round-robin pointer is part of the cycle domain: it advances
        // on every visit, whether or not anything is granted.
        self.routers[r].sa_rr = (sa_base + 1) % PORTS;
        if self.routers[r].is_drained() {
            return; // nothing buffered: no candidates, O(1)
        }
        self.routers[r].promote_ready(cx.now);
        // Allocation reads nothing a commit of the same cycle changes except
        // which input ports are taken, which it tracks itself: each output
        // has its own channel and its own downstream router.
        for grant in self.sa_allocate(cx, r, sa_base).into_iter().flatten() {
            self.sa_commit(cx, ends, r, grant);
        }
    }

    /// Switch + VC allocation for router `r` from its readiness masks: at
    /// most one grant per output port (slot `k` is output `sa_base + k`)
    /// and per input port.
    fn sa_allocate(&self, cx: &Cx, r: usize, sa_base: usize) -> [Option<SaGrant>; PORTS] {
        let router = &self.routers[r];
        // Table rows are port-major, so splitting a mask at the first row of
        // port `sa_base` and reading the high part first visits candidates
        // in round-robin port order, then VC order.
        let split = sa_base * router.vcs();
        let mut granted_rows = 0u64; // every row of an already granted input port
        let mut grants = [None; PORTS];
        // Only outputs an eligible VC requests are visited: rotated, bit `k`
        // of the mask is output `sa_base + k`, which writes grant slot `k`.
        let outputs = router.requested_outputs();
        let rotated = (outputs >> sa_base | outputs << (PORTS - sa_base)) & ((1 << PORTS) - 1);
        for k in set_bits(u64::from(rotated)) {
            let out = Port::from_index((sa_base + k) % PORTS);
            let cands = router.sa_requests(out) & !granted_rows;
            if cands == 0 {
                continue; // every requester sits on an already granted input
            }
            if out != Port::Local && !self.can_send(cx, r, out) {
                continue; // dead link or router, or full channel: flits wait
            }
            // The first candidate wins unless it is a head and VA fails
            // (`None`). Ejecting needs no downstream VC and a body inherits
            // its head's, so only a head looks one up, once per output (one
            // grant per output reserves there): `NO_VC` if the downstream
            // router takes no reservation (gated or waking).
            let mut head_dvc = None;
            let high = cands >> split << split;
            let winner = set_bits(high).chain(set_bits(cands ^ high)).find_map(|row| {
                let entry = router.row(row);
                let dvc = if out == Port::Local {
                    NO_VC
                } else if !entry.holds_head() {
                    entry.out_vc()
                } else {
                    (*head_dvc.get_or_insert_with(|| {
                        let down = &self.routers[self.links.ends(slot(r, out)).1];
                        if down.is_on() {
                            down.free_vc(out.opposite().index()).map(|vc| vc as u8)
                        } else {
                            Some(NO_VC)
                        }
                    }))?
                };
                Some((row, dvc))
            });
            let Some((row, dvc)) = winner else { continue }; // only heads, and no free VC
            let (port, vc) = (row / router.vcs(), row % router.vcs());
            granted_rows |= router.port_mask(port);
            grants[k] = Some(SaGrant { port, vc, out, dvc });
        }
        grants
    }

    /// Carries out one grant of router `r`: reserves the downstream VC a
    /// head won, pops the flit and sends it onto its channel or ejects it.
    fn sa_commit(&mut self, cx: &mut Cx, ends: &mut Endpoints, r: usize, grant: SaGrant) {
        let SaGrant { port: p, vc: v, out, dvc } = grant;
        let router = &mut self.routers[r];
        let scheme = router.directive.scheme;
        let per_hop = scheme.is_per_hop();
        let mut flit = router.pop_granted(p, v, cx.now);
        let reserves = flit.is_head() && dvc != NO_VC;
        if flit.is_head() {
            router.set_out_vc(p, v, dvc);
        }
        flit.vc = dvc;
        router.counters.buffer_reads += 1;
        router.counters.xbar_traversals += 1;
        router.counters.alloc_ops += 1;
        // One grant: one flit handled, and an allocation when its head also
        // won a downstream VC.
        cx.probe.span_count(1, u64::from(reserves));
        if reserves {
            let dv = self.links.ends(slot(r, out)).1;
            self.routers[dv].reserve(out.opposite().index(), dvc as usize, flit.packet_id);
        }
        if out == Port::Local {
            self.routers[r].step.out_flits[out.index()] += 1;
            ends.eject(self, cx, r, flit);
            return;
        }
        flit.hop_scheme = if per_hop { scheme } else { EccScheme::None };
        if per_hop {
            self.routers[r].counters.count_ecc_op(scheme); // encode
        }
        self.forward(cx, r, out, &flit, Sender::Crossbar);
    }

    fn bypass_phase(&mut self, cx: &mut Cx, ends: &mut Endpoints, r: usize) {
        let now = cx.now;
        let rr = self.routers[r].bypass_rr;
        // Like `sa_rr`, the pointer advances on every visit.
        self.routers[r].bypass_rr = (rr + 1) % PORTS;
        if !self.nis.waiting(r) && self.links.inbound(r) == 0 {
            return; // nothing to forward, O(1)
        }
        // The bypass is a simple single-flit latch switch (paper §3.3): it
        // forwards at most ONE flit per cycle, round-robin over the inputs,
        // and ejects at most one. That serialization is the throughput price
        // of power gating.
        let mut ejected = false;
        // Inputs 0..4 are incoming direction channels; input 4 is the NI.
        for k in 0..PORTS {
            let i = (rr + k) % PORTS;
            let in_port = Port::from_index(i);
            // The waiting flit and, off a link, its channel.
            let (flit, in_ci) = if in_port == Port::Local {
                let Some(f) = self.nis[r].inject.front() else { continue };
                (f, None)
            } else {
                let Some(ci) = self.links.feeding(r, in_port) else { continue };
                let Some(f) = self.links.get(ci).and_then(|ch| ch.peek_ready(now)) else {
                    continue;
                };
                (f, Some(ci))
            };
            let Some(route) = self.next_hop(cx, r, in_port, flit) else {
                continue; // no live route right now: the flit waits
            };
            if route == Port::Local && ejected {
                continue;
            }
            // Without the crossbar, the bypass can only continue straight
            // ahead or eject (paper §3.3 / Fig. 6); a turning flit must wait
            // for the router to wake (see gating phase).
            if in_ci.is_some() && route != Port::Local && route != in_port.opposite() {
                continue;
            }
            if route == Port::Local {
                let flit = match in_ci {
                    None => self.nis.pop_front(r).expect("checked nonempty"),
                    // The destination NI decodes; a NACKed flit stays put.
                    Some(ci) => match self.traverse(cx, ci, 0, Receiver::GatedNi) {
                        Hop::Taken(flit) => flit,
                        Hop::Nacked => continue,
                        Hop::Escalated(head) => {
                            ends.salvage_or_drop(self, cx, head);
                            continue;
                        }
                    },
                };
                ejected = true;
                self.routers[r].step.in_flits[i] += 1;
                ends.eject(self, cx, r, flit);
            } else {
                if !self.can_send(cx, r, route) {
                    continue; // outage or full channel: wait it out
                }
                let flit = match in_ci {
                    None => {
                        // Locally injected flits enter the mesh unencoded; they
                        // pick up per-hop protection at the first powered router.
                        let mut f = self.nis.pop_front(r).expect("checked nonempty");
                        f.hop_scheme = EccScheme::None;
                        f
                    }
                    // Forward the still-encoded codeword unchanged.
                    Some(ci) => match self.traverse(cx, ci, 0, Receiver::GatedTransit) {
                        Hop::Taken(flit) => flit,
                        _ => unreachable!("a gated transit decodes nothing, so it cannot NACK"),
                    },
                };
                self.routers[r].step.in_flits[i] += 1;
                // The bypass mux/latch adds one cycle on top of the link.
                self.forward(cx, r, route, &flit, Sender::Bypass(in_port));
                break;
            }
        }
    }

    /// Whether a flit holding no VC at powered router `v` (arrived through
    /// `in_port`) could ride the BST continuation latch onward right now.
    fn latch_ok(&self, cx: &Cx, v: usize, in_port: Port, flit: &Flit) -> bool {
        match self.next_hop(cx, v, in_port, flit) {
            Some(Port::Local) => true,
            Some(out) => self.can_send(cx, v, out),
            None => false, // no live route: wait
        }
    }

    /// Where powered router `v` would put `flit` if it took it off the
    /// channel feeding its `in_port` this cycle — the skip-scan's predicate;
    /// `None` when it cannot take it.
    fn deliverable(&self, cx: &Cx, v: usize, in_port: Port, flit: &Flit) -> Option<Landing> {
        let down = &self.routers[v];
        let port = in_port.index();
        let latch = || self.latch_ok(cx, v, in_port, flit).then_some(Landing::Latch);
        if !flit.is_head() {
            // The VC the upstream grant stamped (`sa_commit`), if bound to the
            // packet: a packet binds one VC per input. Else (`NO_VC` off the
            // bypass or latch, an unreserved head's packet) search the rows.
            let carried = usize::from(flit.vc);
            let vc = if carried < down.vcs() && down.vc(port, carried).is_bound_to(flit.packet_id) {
                Some(carried)
            } else {
                down.bound_vc(port, flit.packet_id)
            };
            debug_assert_eq!(vc, down.bound_vc(port, flit.packet_id), "carried VC of {flit:?}");
            match vc {
                Some(vc) => down.has_room(port, vc).then_some(Landing::Vc(vc)),
                // BST continuation (§3.1.2): the head passed this router
                // without a VC (through the bypass while it was gated, or
                // the latch), and the body follows latch-to-channel along
                // the route the BST recorded.
                None => latch(),
            }
        } else if flit.vc != NO_VC {
            let vc = flit.vc as usize;
            down.vc(port, vc).is_reserved_for(flit.packet_id).then_some(Landing::Vc(vc))
        } else {
            // Unreserved head (granted while this router was gated): bind a
            // free VC, or — to keep the channel from wedging on VC
            // exhaustion — ride the continuation latch onward.
            down.free_vc(port).map(Landing::Vc).or_else(latch)
        }
    }

    /// Phase 2a: deliveries into powered routers.
    pub(super) fn link_delivery(&mut self, cx: &mut Cx, ends: &mut Endpoints) {
        // Non-empty channels in ascending slot order. The set is re-read for
        // every step, so a channel filled mid-pass by a BST-continuation
        // push ahead of the cursor is visited this cycle and one behind it
        // is not — what a scan of every slot would do.
        let mut next_slot = 0;
        while let Some(ci) = self.links.next_occupied(next_slot) {
            next_slot = ci + 1;
            let ((u, dir), v) = (unslot(ci), self.links.ends(ci).1);
            if !cx.health.usable(u, dir) {
                continue; // link or endpoint outage: stored flits wait
            }
            if !self.routers[v].is_on() {
                continue; // bypass (phase 1) handles gated routers
            }
            let in_dir = dir.opposite();
            let in_port = in_dir.index();
            // Scan channel storage for the first deliverable flit
            // (order-preserving per packet — the BST dynamic buffer
            // allocation of §3.1.2), keeping the landing chosen for it.
            let ch = self.links.get(ci).expect("occupied slot is a link");
            let mut landing = None;
            let Some(idx) = ch.scan_deliverable(cx.now, |flit| {
                landing = self.deliverable(cx, v, in_dir, flit);
                landing.is_some()
            }) else {
                continue;
            };
            let landing = landing.expect("the scan stops at the flit that has one");
            // A head needs a live route now: a temporarily unreachable
            // destination (intermittent outage) leaves it waiting on the
            // channel. Body and tail flits read their head's decision, which
            // an outage does not unmake.
            let Some(route) = self.landing_hop(cx, v, in_dir, ch.get(idx), landing) else {
                continue;
            };
            let mut flit = match self.traverse(cx, ci, idx, Receiver::Router) {
                Hop::Taken(flit) => flit,
                Hop::Nacked => continue,
                Hop::Escalated(head) => {
                    ends.salvage_or_drop(self, cx, head);
                    continue;
                }
            };
            self.routers[v].step.in_flits[in_port] += 1;
            match landing {
                Landing::Vc(vc) => self.accept(cx, v, in_port, vc, &flit, route),
                Landing::Latch => {
                    if flit.is_head() {
                        self.head_routed(cx, v, &flit, route);
                    }
                    flit.vc = NO_VC;
                    if route == Port::Local {
                        ends.eject(self, cx, v, flit);
                    } else {
                        flit.hop_scheme = EccScheme::None;
                        self.forward(cx, v, route, &flit, Sender::Latch(in_dir));
                        cx.probe.span_count(1, 0); // latch-to-channel, no buffer
                    }
                }
            }
        }
    }

    /// What the channels feeding gated router `r` press it with: the
    /// fullest one's occupancy (the total is `self.links.inbound(r)`), and
    /// whether a ready flit on one needs to *turn* — a maneuver the
    /// crossbar-less bypass cannot perform, so it must wake the router.
    fn inbound_pressure(&self, cx: &Cx, r: usize) -> (usize, bool) {
        let (mut fullest, mut turn) = (0, false);
        for p in Port::DIRECTIONS {
            let Some(ch) = self.links.feeding(r, p).and_then(|ci| self.links.get(ci)) else {
                continue;
            };
            fullest = fullest.max(ch.occupancy());
            // A ready flit with no live route right now has nothing to wake for.
            let route = ch.peek_ready(cx.now).and_then(|flit| self.next_hop(cx, r, p, flit));
            turn |= route.is_some_and(|out| out != Port::Local && out != p.opposite());
        }
        (fullest, turn)
    }

    /// Phase 3: idle detection, gate and wake transitions, occupancy
    /// accounting.
    pub(super) fn gating_phase(&mut self, cx: &mut Cx) {
        let (now, cfg, health) = (cx.now, cx.cfg, cx.health);
        for r in 0..self.routers.len() {
            if !health.router_up(r) {
                // A dead router draws no dynamic power and makes no gating
                // transitions; account its cycles as gated.
                let router = &mut self.routers[r];
                router.step.cycles += 1;
                router.step.gated_cycles += 1;
                cx.stats.gated_router_cycles += 1;
                continue;
            }
            let incoming = self.links.inbound(r);
            // Only the `Gated` arm reads these two, and with nothing inbound
            // both are their zero values: no channel needs walking.
            let gated_inbound = incoming > 0 && matches!(self.routers[r].gate, GateState::Gated);
            let (max_incoming, turn_pending) =
                if gated_inbound { self.inbound_pressure(cx, r) } else { (0, false) };
            let ni_waiting = self.nis.waiting(r);
            let router = &mut self.routers[r];
            router.step.occupancy_sum += router.occupancy() as u64;
            router.step.cycles += 1;
            let mut gate_edge = None;
            match router.gate {
                GateState::On => {
                    let busy = router.occupancy() > 0 || incoming > 0 || ni_waiting;
                    if busy {
                        router.idle_cycles = 0;
                    } else {
                        router.idle_cycles = router.idle_cycles.saturating_add(1);
                    }
                    // Mode 0 is advisory: the PG controller only engages on
                    // a quiet router (paper §4: triggered when the router is
                    // underutilized or overheating is predicted).
                    let forced_ready = router.directive.gate == Some(true)
                        && router.idle_cycles >= FORCED_IDLE_THRESHOLD;
                    let reactive_ready = cfg.reactive_gating
                        && router.directive.gate != Some(false)
                        && router.idle_cycles >= IDLE_GATE_THRESHOLD;
                    if (forced_ready || reactive_ready)
                        && router.is_gateable()
                        && (cfg.bypass_enabled || (!busy && !ni_waiting && incoming == 0))
                    {
                        router.gate = GateState::Gated;
                        router.idle_cycles = 0;
                        gate_edge = Some(GateEdge::On);
                    }
                }
                GateState::Gated => {
                    router.step.gated_cycles += 1;
                    cx.stats.gated_router_cycles += 1;
                    let forced = router.directive.gate == Some(true);
                    let policy_wake = router.directive.gate == Some(false);
                    let turn_wake = turn_pending;
                    // Proactive stress-relax mode and MFAC routers ride out
                    // pressure using MFAC storage before powering back on.
                    let wake_at = if forced || cfg.mfac {
                        FORCED_WAKE_OCCUPANCY
                    } else {
                        LATCH_WAKE_OCCUPANCY
                    };
                    let pressure_wake = max_incoming >= wake_at.min(cfg.channel_capacity.max(1));
                    let stranded = !cfg.bypass_enabled && (incoming > 0 || ni_waiting);
                    if policy_wake || pressure_wake || stranded || turn_wake {
                        router.gate = GateState::Waking(now + WAKEUP_LATENCY);
                        router.counters.wakeups += 1;
                    }
                }
                GateState::Waking(t) => {
                    router.step.gated_cycles += 1;
                    cx.stats.gated_router_cycles += 1;
                    if now >= t {
                        router.gate = GateState::On;
                        router.idle_cycles = 0;
                        gate_edge = Some(GateEdge::Off);
                    }
                }
            }
            if let Some(edge) = gate_edge {
                cx.probe.event(Event::PowerGate { cycle: now, router: r as u32, edge });
            }
        }
        cx.probe.gate_cycle(self.routers.len(), |r| {
            self.routers[r].is_gated_or_waking() || !health.router_up(r)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{quiet_config, Rig};
    use super::*;
    use crate::flit::{make_packet, Cycle};
    use crate::router::Router;
    use crate::topology::DIRS;

    #[test]
    fn empty_router_still_advances_round_robin_pointers() {
        // The pointers are cycle-domain state: the early returns of the
        // empty-router paths must advance them exactly like a full visit.
        let mut rig = Rig::new(quiet_config());
        let (fabric, ends, mut cx) = rig.parts(0);
        assert!(fabric.routers[9].is_drained() && fabric.nis[9].inject.is_empty());
        for visit in 1..=2 * PORTS {
            fabric.sa_phase(&mut cx, ends, 9);
            fabric.bypass_phase(&mut cx, ends, 9);
            assert_eq!(fabric.routers[9].sa_rr, visit % PORTS);
            assert_eq!(fabric.routers[9].bypass_rr, visit % PORTS);
        }
    }

    /// The gather-and-scan switch allocator that `sa_allocate` replaced, kept
    /// as the reference: poll every VC's head for eligibility in round-robin
    /// port order, then per output rescan that list for the first candidate
    /// of a not-yet-granted input port, walking the downstream port's VCs
    /// for a free one. Reads entries and queues, never the masks.
    fn sa_allocate_by_polling(
        rig: &Rig,
        now: Cycle,
        r: usize,
        sa_base: usize,
    ) -> [Option<SaGrant>; PORTS] {
        let router = &rig.fabric.routers[r];
        let mut cands = Vec::new();
        for pk in 0..PORTS {
            let p = (sa_base + pk) % PORTS;
            for (v, vc) in router.port_vcs(p).iter().enumerate() {
                if router.sa_candidate(p, v, now).is_some() {
                    cands.push((vc.route(), p, v));
                }
            }
        }
        let mut granted_inputs = [false; PORTS];
        let mut grants = [None; PORTS];
        for (k, grant) in grants.iter_mut().enumerate() {
            let out = Port::from_index((sa_base + k) % PORTS);
            if !cands.iter().any(|c| c.0 == out) {
                continue;
            }
            if out != Port::Local
                && !(rig.health.usable(r, out) && rig.fabric.links.has_space(slot(r, out)))
            {
                continue;
            }
            let down = rig.health.neighbor(r, out).map(|dv| &rig.fabric.routers[dv]);
            let down_reservable = down.is_some_and(Router::is_on);
            for &(route, p, v) in &cands {
                if route != out || granted_inputs[p] {
                    continue;
                }
                let flit = router.sa_candidate(p, v, now).expect("gathered as a candidate");
                let dvc = if out == Port::Local {
                    NO_VC
                } else if !flit.is_head() {
                    router.vc(p, v).out_vc()
                } else if down_reservable {
                    let free = down.expect("non-local output").port_vcs(out.opposite().index());
                    match free.iter().position(|vc| vc.available()) {
                        Some(vc) => vc as u8,
                        None => continue, // VA failed: no free VC
                    }
                } else {
                    NO_VC
                };
                granted_inputs[p] = true;
                *grant = Some(SaGrant { port: p, vc: v, out, dvc });
                break;
            }
        }
        grants
    }

    /// What one VC of the router under test holds in the allocator proptest:
    /// `(kind, route, flits - 1, head-ready offset, out_vc)`, kind 0 = free,
    /// 1 = reserved, 2 = head flit first, 3 = head departed.
    type VcSeed = (u8, u8, u8, u64, u8);

    /// What lies beyond one output of the router under test: `(link dead
    /// if 0, channel full if 0, downstream gate 0-1 on / 2 gated / 3 waking,
    /// downstream VCs taken as a bit per VC)`.
    type OutputSeed = (u8, u8, u8, u8);

    /// Builds the centre router of a 3x3 mesh (four neighbours) from the
    /// seeds and checks the mask allocator against the polling one, then
    /// that `sa_phase` carries out exactly those grants.
    fn check_allocation(
        (vcs, depth, sa_rr): (usize, usize, usize),
        rows: &[VcSeed],
        outputs: &[OutputSeed],
    ) {
        let (r, now) = (4, 10);
        let mut cfg = quiet_config();
        (cfg.width, cfg.height, cfg.vcs, cfg.vc_depth, cfg.channel_capacity) =
            (3, 3, vcs, depth, 2);
        let mut rig = Rig::new(cfg);
        rig.fabric.routers[r].sa_rr = sa_rr;
        for (row, &(kind, route, extra, ready_in, out_vc)) in
            rows.iter().take(PORTS * vcs).enumerate()
        {
            let (p, v) = (row / vcs, row % vcs);
            let packet = 100 + row as u64;
            let route = Port::from_index(route as usize);
            // Only flits that are home may be routed to the local port.
            let dest = if route == Port::Local { r as u16 } else { 0 };
            let flits = make_packet(packet, packet * 4, 0, dest, 0);
            let ready = now - 2 + ready_in; // eligible now for offsets 0..=2
            let queued = 1 + (extra as usize).min(depth - 1);
            let router = &mut rig.fabric.routers[r];
            match kind {
                0 => {}
                1 => router.reserve(p, v, packet),
                2 => {
                    for (i, f) in flits.iter().take(queued).enumerate() {
                        router.enqueue(p, v, *f, route, ready + i as u64);
                    }
                }
                _ => {
                    // The head came and went; bodies stream behind it.
                    router.enqueue(p, v, flits[0], route, 0);
                    let _ = router.pop_granted(p, v, now);
                    router.set_out_vc(p, v, if out_vc == 4 { NO_VC } else { out_vc });
                    for (i, f) in flits[1..].iter().take(queued).enumerate() {
                        router.enqueue(p, v, *f, route, ready + i as u64);
                    }
                }
            }
        }
        for (dir, &(dead, full, gate, taken)) in Port::DIRECTIONS.into_iter().zip(outputs) {
            if dead == 0 {
                rig.health.set_link(r, dir, false);
            }
            let ci = slot(r, dir);
            while full == 0 && rig.fabric.links.has_space(ci) {
                rig.fabric.links.push_delayed(ci, make_packet(900, 3600, 0, 1, 0)[0], now, 0);
            }
            let down =
                &mut rig.fabric.routers[rig.fabric.mesh.neighbor(r, dir).expect("centre router")];
            down.gate = match gate {
                0 | 1 => GateState::On,
                2 => GateState::Gated,
                _ => GateState::Waking(now + 3),
            };
            for vc in (0..vcs).filter(|vc| taken >> vc & 1 == 1) {
                down.reserve(dir.opposite().index(), vc, 700 + vc as u64);
            }
        }
        // A health change takes effect at a rebuild, as `apply_faults` does.
        rig.health.rebuild();
        // Promote in two steps, as consecutive cycles would.
        rig.fabric.routers[r].promote_ready(now - 1);
        rig.fabric.routers[r].promote_ready(now);
        assert_eq!(rig.fabric.routers[r].index_drift(now), None);
        let want = sa_allocate_by_polling(&rig, now, r, sa_rr);
        let (fabric, ends, mut cx) = rig.parts(now);
        assert_eq!(fabric.sa_allocate(&cx, r, sa_rr), want);

        let before = fabric.routers[r].occupancy();
        let granted: Vec<(SaGrant, Flit)> = want
            .iter()
            .flatten()
            .map(|g| {
                let flit = fabric.routers[r].sa_candidate(g.port, g.vc, now);
                (*g, *flit.expect("granted VCs hold an eligible flit"))
            })
            .collect();
        fabric.sa_phase(&mut cx, ends, r);
        assert_eq!(fabric.routers[r].sa_rr, (sa_rr + 1) % PORTS);
        assert_eq!(fabric.routers[r].occupancy(), before - granted.len());
        for (g, flit) in granted {
            if flit.is_head() && g.dvc != NO_VC {
                let dv = fabric.mesh.neighbor(r, g.out).expect("centre router");
                let reserved = fabric.routers[dv].vc(g.out.opposite().index(), g.dvc as usize);
                assert!(reserved.is_reserved_for(flit.packet_id), "{g:?}: {reserved:?}");
            }
        }
        // The recounts only: a hand-built table's bindings and reservations
        // have no packets behind them, so the ownership half of
        // `occupancy_index_drift` does not apply.
        assert_eq!(fabric.routers.iter().find_map(|r| r.index_drift(now)), None);
        assert_eq!(fabric.links.index_drift(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// Mask-based allocation grants exactly what the polling allocator
        /// grants — same `(input port, vc, out, dvc)` per output — for any
        /// table state: free, reserved and bound VCs, heads and bodies,
        /// heads eligible now or later, every round-robin offset, full and
        /// dead outputs, gated and waking downstream routers with any subset
        /// of their VCs taken.
        #[test]
        fn mask_allocation_grants_what_polling_grants(
            shape in (1usize..5, 1usize..4, 0usize..PORTS),
            rows in proptest::collection::vec((0u8..4, 0u8..5, 0u8..3, 0u64..4, 0u8..5), 20),
            outputs in proptest::collection::vec((0u8..6, 0u8..4, 0u8..4, 0u8..16), DIRS),
        ) {
            check_allocation(shape, &rows, &outputs);
        }
    }
}
