//! Recovery: what the network does when a hard fault takes a link or a
//! router down or brings it back — the edge, and the purge of what it
//! strands.
//!
//! Owners mutated: [`HealthRouter`](crate::health::HealthRouter) through
//! `apply_faults` (the map, route tables and fail-stop view are derived
//! there, not here); the `Fabric` through `Router::rebind_route` and
//! `Nis::recv_mut`. What an edge disturbed is read through the owners'
//! queries (`Router::{holdings, parked_heads, queued_flits}`,
//! `Links::flits`, the NI queues); each disturbed packet goes to
//! `Endpoints::salvage_or_drop` (`ni_layer`) to be re-sent or dropped.

use super::Network;
use crate::flit::Flit;
use crate::router::Holding;
use crate::topology::{unslot, Port};
use noc_fault::HardFaultTarget;
use noc_telemetry::Event;
use std::collections::{BTreeMap, BTreeSet};

impl Network {
    /// Phase 0: applies scheduled hard-fault transitions at `self.now`. On
    /// any service-state edge the health map and route tables are rebuilt,
    /// and packets stranded on fail-stop-dead components are salvaged via
    /// end-to-end recovery or accounted as dropped. Intermittent outages
    /// only stall traffic: stored flits wait out the outage.
    pub(super) fn apply_hard_faults(&mut self) {
        if self.cfg.hard_faults.is_empty() {
            return;
        }
        let now = self.now;
        let mut any_edge = false;
        for (fault, state) in self.cfg.hard_faults.faults.iter().zip(&mut self.fault_state) {
            let down = fault.is_down(now);
            if down == *state {
                continue;
            }
            *state = down;
            any_edge = true;
            self.probe.event(match (fault.target, down) {
                (HardFaultTarget::Link { router, dir }, true) => {
                    Event::LinkFailed { cycle: now, router, dir }
                }
                (HardFaultTarget::Link { router, dir }, false) => {
                    Event::LinkRepaired { cycle: now, router, dir }
                }
                (HardFaultTarget::Router { router }, true) => {
                    Event::RouterFailed { cycle: now, router }
                }
                (HardFaultTarget::Router { router }, false) => {
                    Event::RouterRepaired { cycle: now, router }
                }
            });
        }
        if !any_edge {
            return;
        }
        let faults = self.cfg.hard_faults.faults.iter().zip(&self.fault_state);
        self.health.apply_faults(faults.filter(|(_, &down)| down).map(|(fault, _)| fault));
        self.purge_after_fault();
    }

    /// Finds every packet disturbed by a health-map transition and salvages
    /// or drops it, in deterministic packet-id order. Each owner is asked
    /// what the edge disturbed; only the verdicts are decided here:
    ///
    /// * a router names packets by what they *hold* of it — every VC and
    ///   continuation record of a fail-stop-dead router, every bound VC and
    ///   record whose output is fail-stop dead — whether or not a flit of
    ///   the packet is queued there: the binding alone would lead the flits
    ///   still upstream onto the dead path;
    /// * a resident flit names its packet by *where it sits*: on a dead
    ///   link, or anywhere (channel, VC, NI queue) its destination is cut
    ///   off from for good;
    /// * under fault-aware routing a parked head names its packet when the
    ///   rebuilt up*/down* table has no continuation from its position —
    ///   the table only guarantees progress from legal states, and a head
    ///   caught mid-path by the transition would wait for ever — and is
    ///   rebound in place when the continuation merely changed. Heads
    ///   inside an intermittent outage are skipped here and re-swept at the
    ///   repair edge. Body and tail flits are never re-routed.
    fn purge_after_fault(&mut self) {
        let (fabric, ends, mut cx) = self.parts();
        let (health, fault_aware) = (cx.health, cx.cfg.fault_aware_routing);
        let mut named: BTreeSet<u64> = BTreeSet::new();
        let mut rebinds: Vec<(usize, usize, usize, Port)> = Vec::new();
        for (r, router) in fabric.routers.iter().enumerate() {
            let dead = |h: &Holding| {
                health.failstop_router_down(r)
                    || h.out.is_some_and(|o| o != Port::Local && health.failstop_hop_down(r, o))
            };
            named.extend(router.holdings().filter(dead).map(|h| h.packet));
            if fault_aware && health.router_up(r) {
                for (p, vc, head) in router.parked_heads() {
                    match health.route(r, head.dest as usize, Port::from_index(p)) {
                        None => {
                            named.insert(head.packet_id);
                        }
                        Some(route) if route != router.vc(p, vc).route() => {
                            rebinds.push((r, p, vc, route));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        // One pass over every resident flit: those that name their packet
        // themselves, and a representative of each packet named above.
        let mut disturbed: BTreeMap<u64, Flit> = BTreeMap::new();
        let mut sweep = |f: &Flit, hit: bool| {
            if hit || named.contains(&f.packet_id) {
                disturbed.entry(f.packet_id).or_insert(*f);
            }
        };
        for (ci, f) in fabric.links.flits() {
            let ((u, dir), v) = (unslot(ci), fabric.links.ends(ci).1);
            let dest = f.dest as usize;
            let dead = health.failstop_router_down(u)
                || health.failstop_hop_down(u, dir)
                || health.fs_split(v, dest);
            let stranded = fault_aware
                && f.is_head()
                && health.usable(u, dir)
                && health.route(v, dest, dir.opposite()).is_none();
            sweep(f, dead || stranded);
        }
        for (r, router) in fabric.routers.iter().enumerate() {
            let queued = router.queued_flits();
            let waiting = fabric.nis[r].inject.iter();
            for f in queued.chain(waiting) {
                sweep(f, health.fs_split(r, f.dest as usize));
            }
        }
        for (r, p, vc, route) in rebinds {
            fabric.routers[r].rebind_route(p, vc, route);
        }
        // Partial reassembly state dies with a destination router.
        for r in 0..fabric.routers.len() {
            if health.failstop_router_down(r) {
                fabric.nis.recv_mut(r).clear();
            }
        }
        for (_, f) in disturbed {
            ends.salvage_or_drop(fabric, &mut cx, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quiet_config;
    use super::*;
    use crate::flit::make_packet;
    use crate::topology::slot;
    use noc_fault::{HardFault, HardFaultKind, HardFaultScenario};
    use noc_traffic::WorkloadSpec;

    /// One packet 0 → 7 along the bottom row of an 8x2 mesh whose tail is
    /// held back on channel 3 → 4 (as a hop NACK would) until its head and
    /// both bodies have ejected. Then router 6 dies — alone, so the re-sent
    /// packet detours through the top row, or with router 14, which cuts
    /// node 7 off for good. No flit of the packet sits on dead hardware:
    /// all that ties it to router 6 is the empty VC router 5 still binds to
    /// it, which the tail would walk into and wait in for ever.
    fn router_dies_between_head_and_tail(column_dies: bool) -> Network {
        const DEATH: u64 = 80;
        let mut cfg = quiet_config();
        (cfg.width, cfg.height) = (8, 2);
        cfg.fault_aware_routing = true;
        cfg.stall_window = 2_000;
        let dead: &[u32] = if column_dies { &[6, 14] } else { &[6] };
        cfg.hard_faults = HardFaultScenario {
            faults: dead
                .iter()
                .map(|&router| HardFault {
                    at: DEATH,
                    target: HardFaultTarget::Router { router },
                    kind: HardFaultKind::FailStop,
                })
                .collect(),
        };
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        net.stats.packets_injected = 1;
        net.ends.outstanding[0] = 1;
        net.fabric.nis.extend(0, make_packet(0, 0, 0, 7, 0));
        let ci = slot(3, Port::XPlus);
        let tail_at = |net: &Network| {
            let ch = net.fabric.links.get(ci).expect("link 3 -> 4");
            (0..ch.occupancy()).find(|&i| ch.get(i).is_tail())
        };
        while tail_at(&net).is_none() {
            assert!(net.now < DEATH, "the tail never reached channel 3 -> 4");
            net.step_cycle();
        }
        let idx = tail_at(&net).expect("just found");
        net.fabric.links.delay_at(ci, idx, net.now, 2 * DEATH);
        while net.now < DEATH {
            net.step_cycle();
        }
        assert_eq!(
            net.fabric.nis[7].recv.iter().find(|(p, _)| *p == 0).map(|(_, r)| r.flits),
            Some(3),
            "head and bodies ejected"
        );
        assert!(tail_at(&net).is_some(), "the tail still waits two hops upstream of router 5");
        let row =
            net.fabric.routers[5].bound_vc(Port::XMinus.index(), 0).expect("router 5 binds a VC");
        let row = net.fabric.routers[5].vc(Port::XMinus.index(), row);
        assert_eq!((row.occupancy(), row.route()), (0, Port::XPlus), "empty, toward router 6");

        assert!(net.run_cycles(50_000));
        assert!(net.stall().is_none(), "stalled: {:?}", net.stall().map(|s| &s.blocked));
        assert!(net.fabric.nis[7].recv.is_empty(), "partial reassembly of the first send is gone");
        for r in &net.fabric.routers {
            assert!(r.is_gateable(), "router {} still holds a VC", r.id);
        }
        assert_eq!(net.occupancy_index_drift(), None);
        net
    }

    #[test]
    fn binding_toward_a_dead_router_is_salvaged_without_a_resident_flit() {
        let net = router_dies_between_head_and_tail(false);
        let s = &net.stats;
        assert_eq!((s.packets_delivered, s.packets_dropped, s.e2e_retx_packets), (1, 0, 1));
    }

    #[test]
    fn binding_toward_a_dead_router_is_dropped_when_the_mesh_splits() {
        let net = router_dies_between_head_and_tail(true);
        let s = &net.stats;
        assert_eq!((s.packets_delivered, s.packets_dropped, s.e2e_retx_packets), (0, 1, 0));
    }
}
