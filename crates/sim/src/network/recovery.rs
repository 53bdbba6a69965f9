//! Recovery: what the network does when the fault model bites harder than
//! a per-hop retry — hard-fault edges, the purge of what they strand,
//! end-to-end salvage, accounted drops, and the stall watchdog.
//!
//! Owners mutated: [`HealthRouter`](crate::health::HealthRouter) through
//! `apply_faults` (the map, route tables and fail-stop view are derived
//! there, not here); [`Links`](crate::channel::Links),
//! [`Router`](crate::router::Router) and [`Nis`](crate::ni::Nis) through
//! their `purge_packet`, plus `Router::rebind_route` and `Nis::recv_mut`.
//! What an edge disturbed is read through the owners' queries
//! (`Router::{holdings, parked_heads, queued_flits}`, `Links::flits`, the NI
//! queues). A salvaged packet re-enters through [`Network::reinject`]
//! (`ni_layer`).

use super::Network;
use crate::flit::Flit;
use crate::router::Holding;
use crate::stats::StallReport;
use crate::topology::{Port, DIRS};
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
        let health = &self.health;
        let fault_aware = self.cfg.fault_aware_routing;
        let mut named: BTreeSet<u64> = BTreeSet::new();
        let mut rebinds: Vec<(usize, usize, usize, Port)> = Vec::new();
        for (r, router) in self.routers.iter().enumerate() {
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
        for (ci, f) in self.links.flits() {
            let (u, dir) = (ci / DIRS, Port::from_index(ci % DIRS));
            let v = health.neighbor(u, dir).expect("channel implies neighbor");
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
        for (r, router) in self.routers.iter().enumerate() {
            let queued = router.queued_flits();
            let waiting = self.nis[r].inject.iter();
            for f in queued.chain(waiting) {
                sweep(f, health.fs_split(r, f.dest as usize));
            }
        }
        for (r, p, vc, route) in rebinds {
            self.routers[r].rebind_route(p, vc, route);
        }
        // Partial reassembly state dies with a destination router.
        for r in 0..self.mesh.nodes() {
            if self.health.failstop_router_down(r) {
                self.nis.recv_mut(r).clear();
            }
        }
        for (_, f) in disturbed {
            self.salvage_or_drop(f);
        }
    }

    /// Removes every in-flight flit of `packet` from channels, input VCs,
    /// NI injection queues, and reassembly buffers.
    pub(super) fn purge_packet(&mut self, packet: u64) {
        self.links.purge_packet(packet);
        for router in &mut self.routers {
            router.purge_packet(packet);
        }
        self.nis.purge_packet(packet);
    }

    /// End-to-end recovery for a packet disturbed by a hard fault or out of
    /// hop-retry budget: purges its in-flight flits, then re-injects it
    /// from the source NI with a bumped generation — or, when the budget is
    /// exhausted or no route survives, accounts it as dropped.
    pub(super) fn salvage_or_drop(&mut self, f: Flit) {
        self.purge_packet(f.packet_id);
        if self.dropped_ids.contains(&f.packet_id) {
            return;
        }
        // Preserved divergence (DESIGN.md §7, `e2e-retx-carry`): a salvaged
        // packet restarts with a full hop-retry budget, reported at its
        // source.
        self.recover_or_drop(&f, f.src as usize, 0);
    }

    /// Re-sends the packet of `f` end to end while its generation budget
    /// lasts and a route survives, and accounts it as dropped otherwise.
    /// Intermittent outages don't disqualify a re-send: the packet simply
    /// waits them out in the source NI queue.
    pub(super) fn recover_or_drop(&mut self, f: &Flit, at: usize, retx: u16) {
        let budget_ok = self.cfg.max_retx == 0 || u32::from(f.generation) < self.cfg.max_retx;
        if budget_ok && !self.health.fs_split(f.src as usize, f.dest as usize) {
            self.reinject(f, at, retx);
        } else {
            self.account_drop(f);
        }
    }

    /// Accounts a packet as permanently lost. Idempotent per packet id.
    pub(super) fn account_drop(&mut self, f: &Flit) {
        if !self.dropped_ids.insert(f.packet_id) {
            return;
        }
        self.probe.drop(f, self.now);
        let src = f.src as usize;
        self.stats.packets_dropped += 1;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.traffic.on_dropped(self.now, f.packet_id);
    }

    /// Checks forward progress and arms the stall diagnostic when none was
    /// made for a full watchdog window while packets are in flight.
    pub(super) fn watchdog_check(&mut self) -> bool {
        if self.cfg.stall_window == 0 {
            return false;
        }
        let score = self.stats.packets_delivered + self.stats.packets_dropped;
        let in_flight = self
            .stats
            .packets_injected
            .saturating_sub(self.stats.packets_delivered + self.stats.packets_dropped);
        if score != self.last_score || in_flight == 0 {
            self.last_score = score;
            self.last_progress = self.now;
            return false;
        }
        if self.now.saturating_sub(self.last_progress) < self.cfg.stall_window {
            return false;
        }
        self.probe.event(Event::WatchdogStall { cycle: self.now, router: 0, state: in_flight });
        self.stall = Some(StallReport {
            cycle: self.now,
            window: self.cfg.stall_window,
            in_flight,
            blocked: self.snapshot_blocked(16).lines().map(String::from).collect(),
            dump: self.snapshot_dump(),
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quiet_config;
    use super::*;
    use crate::flit::make_packet;
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
        net.outstanding[0] = 1;
        net.nis.extend(0, make_packet(0, 0, 0, 7, 0));
        let ci = net.channel_index(3, Port::XPlus);
        let tail_at = |net: &Network| {
            let ch = net.links.get(ci).expect("link 3 -> 4");
            (0..ch.occupancy()).find(|&i| ch.get(i).is_tail())
        };
        while tail_at(&net).is_none() {
            assert!(net.now < DEATH, "the tail never reached channel 3 -> 4");
            net.step_cycle();
        }
        let idx = tail_at(&net).expect("just found");
        net.links.delay_at(ci, idx, net.now, 2 * DEATH);
        while net.now < DEATH {
            net.step_cycle();
        }
        assert_eq!(net.nis[7].recv.get(&0).map(|r| r.flits), Some(3), "head and bodies ejected");
        assert!(tail_at(&net).is_some(), "the tail still waits two hops upstream of router 5");
        let row = net.routers[5].bound_vc(Port::XMinus.index(), 0).expect("router 5 binds a VC");
        let row = net.routers[5].vc(Port::XMinus.index(), row);
        assert_eq!((row.occupancy(), row.route()), (0, Port::XPlus), "empty, toward router 6");

        assert!(net.run_cycles(50_000));
        assert!(net.stall().is_none(), "stalled: {:?}", net.stall().map(|s| &s.blocked));
        assert!(net.nis[7].recv.is_empty(), "partial reassembly of the first send is gone");
        for r in &net.routers {
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
