//! The NI layer: where packets enter and leave the mesh — workload
//! injection into the source NI queues, NI-to-router injection, acceptance
//! of a flit into an input VC, ejection with reassembly and the end-to-end
//! CRC, and the one end-to-end re-send.
//!
//! [`Endpoints`] is packet birth and death: the workload, the per-source
//! outstanding counts, the id counters and the drop ledger. Owners mutated:
//! [`Nis`](crate::ni::Nis) through `extend`, `pop_front` and `recv_mut`;
//! [`Router`](crate::router::Router) through `enqueue` (only in
//! [`Fabric::accept`]). A flit that continues without a VC goes out through
//! [`Fabric::forward`] (`link_layer`); losses are accounted by
//! [`Endpoints::account_drop`].

use super::link_layer::{Landing, Sender};
use super::{Cx, Endpoints, Fabric, LinkErrors};
use crate::flit::{make_packet, Flit, FLITS_PER_PACKET, NO_VC};
use crate::topology::Port;
use noc_ecc::{DecodeStatus, EccScheme};

impl LinkErrors {
    /// Whether the end-to-end CRC detects `flips` flipped bits of `payload`.
    pub(super) fn crc_detects(&mut self, payload: u128, flips: u16) -> bool {
        let mut cw = self.suite.encode(EccScheme::Crc, payload);
        let bits = cw.len();
        for pos in self.injector.choose_positions(bits, (flips as usize).min(bits) as u32) {
            cw.flip_bit(pos);
        }
        self.suite.decode(EccScheme::Crc, &cw).1 == DecodeStatus::Detected
    }
}

impl Fabric {
    /// Phase 2b: NI injection into powered local ports (one flit per
    /// cycle), over the non-empty injection queues in ascending node order.
    pub(super) fn ni_injection(&mut self, cx: &mut Cx) {
        let mut next_node = 0;
        while let Some(r) = self.nis.next_waiting(next_node) {
            next_node = r + 1;
            if !self.routers[r].is_on() {
                continue;
            }
            let head = self.nis[r].inject.front().expect("waiting set implies a queued flit");
            let in_port = Port::Local.index();
            // A body flit whose packet holds no VC here (its head left
            // through the bypass while the router was gated) rides the
            // continuation latch; any other flit needs a VC with room.
            let router = &self.routers[r];
            let landing = if head.is_head() {
                router.free_vc(in_port).map(Landing::Vc)
            } else if let Some(vc) = router.bound_vc(in_port, head.packet_id) {
                router.has_room(in_port, vc).then_some(Landing::Vc(vc))
            } else {
                Some(Landing::Latch)
            };
            let Some(landing) = landing else { continue };
            let Some(route) = self.landing_hop(cx, r, Port::Local, head, landing) else {
                continue; // destination unreachable right now: wait in the NI
            };
            match landing {
                Landing::Vc(vc) => {
                    let flit = self.nis.pop_front(r).expect("checked nonempty");
                    self.routers[r].step.in_flits[in_port] += 1;
                    self.accept(cx, r, in_port, vc, &flit, route);
                }
                Landing::Latch => {
                    if route != Port::Local && self.can_send(cx, r, route) {
                        let mut flit = self.nis.pop_front(r).expect("checked nonempty");
                        flit.hop_scheme = EccScheme::None;
                        flit.vc = NO_VC;
                        self.forward(cx, r, route, &flit, Sender::Latch(Port::Local));
                    }
                }
            }
        }
    }

    /// A route was computed for a new packet's head at router `r`: accounts
    /// a detour when fault-aware routing left the XY path.
    pub(super) fn head_routed(&self, cx: &mut Cx, r: usize, head: &Flit, route: Port) {
        let xy = self.mesh.xy_route(r, head.dest as usize);
        if route != xy {
            cx.stats.reroutes += 1;
            let (from, to) = (xy.index() as u8, route.index() as u8);
            cx.probe.reroute(head.packet_id, r, from, to, cx.now);
        }
    }

    /// The one VC accept: `flit` enters input VC `vc` of port `in_port` of
    /// powered router `r`, bound for `route`. A head starts the router
    /// pipeline; body flits stream one cycle behind.
    pub(super) fn accept(
        &mut self,
        cx: &mut Cx,
        r: usize,
        in_port: usize,
        vc: usize,
        flit: &Flit,
        route: Port,
    ) {
        let now = cx.now;
        let mut ready = now + 1;
        if flit.is_head() {
            self.head_routed(cx, r, flit, route);
            let fill = cx.cfg.pipeline_latency as u64;
            cx.probe.pipeline(flit.packet_id, r as u16, fill, now);
            ready = now + fill;
        }
        let router = &mut self.routers[r];
        router.counters.buffer_writes += 1;
        router.enqueue(in_port, vc, *flit, route, ready);
        cx.probe.span_count(1, 1); // buffered into an input VC
    }
}

impl Endpoints {
    /// Ejects `flit` at its destination NI `r`, recorded as an `eject` leaf
    /// span under whichever phase delivered it.
    pub(super) fn eject(&mut self, fabric: &mut Fabric, cx: &mut Cx, r: usize, flit: Flit) {
        let span = cx.probe.leaf_enter("eject");
        self.eject_inner(fabric, cx, r, flit);
        cx.probe.leaf_exit(span, 1);
    }

    fn eject_inner(&mut self, fabric: &mut Fabric, cx: &mut Cx, r: usize, mut flit: Flit) {
        debug_assert_eq!(flit.dest as usize, r, "flit ejected at wrong node");
        let now = cx.now;
        if flit.is_head() {
            cx.probe.head_eject(&flit, now);
        }
        // A flit ejected straight off the bypass still carries undecoded
        // per-hop codeword corruption; it surfaces at the NI.
        flit.e2e_flips = flit.e2e_flips.saturating_add(flit.hop_flips);
        flit.hop_flips = 0;
        let mut crc_failed_now = false;
        if cx.cfg.e2e_crc {
            fabric.routers[r].counters.crc_ops += 1; // e2e decode
            if flit.e2e_flips > 0 {
                crc_failed_now = cx.errors.crc_detects(flit.payload(), flit.e2e_flips);
            }
        }
        let recv = fabric.nis.recv_mut(r);
        let at = recv.iter().position(|&(p, _)| p == flit.packet_id).unwrap_or_else(|| {
            recv.push((flit.packet_id, Default::default()));
            recv.len() - 1
        });
        let entry = &mut recv[at].1;
        entry.flits += 1;
        entry.flips += flit.e2e_flips as u32;
        entry.crc_failed |= crc_failed_now;
        if entry.flits < FLITS_PER_PACKET {
            return;
        }
        let (_, state) = recv.swap_remove(at);
        if state.crc_failed {
            // The source NI re-sends the packet — or, past the generation
            // budget or across a fail-stop split, it is accounted as lost
            // rather than retried forever. Preserved divergence (DESIGN.md
            // §7, `e2e-retx-carry`): a CRC re-send carries the hop-retry
            // count on, one higher, and is reported at the destination.
            self.recover_or_drop(fabric, cx, &flit, r, flit.retx + 1);
            return;
        }
        // Final delivery.
        let latency = now + 1 - flit.injected_at;
        cx.probe.complete(&flit, now, latency);
        let stats = &mut *cx.stats;
        stats.packets_delivered += 1;
        stats.latency_sum += latency;
        stats.latency_max = stats.latency_max.max(latency);
        stats.latency_hist.record(latency);
        stats.last_delivery = now + 1;
        if state.flips > 0 {
            stats.corrupted_packets += 1;
        }
        let src = flit.src as usize;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.traffic.on_delivered(now, flit.packet_id);
        // Paper Section 5: router i's latency covers "each flit transmission
        // within the time step" — every router that transmitted the packet.
        // Credit the whole XY path so a misconfigured router feels the
        // latency of the through-traffic it hurt.
        for here in fabric.mesh.xy_path(src, r) {
            let step = &mut fabric.routers[here].step;
            step.ejected_latency_sum += latency;
            step.ejected_packets += 1;
        }
    }

    /// The one end-to-end re-send: the source NI re-injects the packet of
    /// `f` as a new generation, its flits starting with `retx` hop retries
    /// already spent. `at` is the router the event is reported at.
    fn reinject(&mut self, fabric: &mut Fabric, cx: &mut Cx, f: &Flit, at: usize, retx: u16) {
        let n = FLITS_PER_PACKET as u64;
        cx.stats.e2e_retx_packets += 1;
        cx.stats.retransmitted_flits += n;
        let src = f.src as usize;
        let mut flits = make_packet(f.packet_id, self.next_flit_id, f.src, f.dest, f.injected_at);
        self.next_flit_id += n;
        for nf in &mut flits {
            nf.retx = retx;
            nf.generation = f.generation + 1;
        }
        // e2e CRC re-encode energy at the source.
        fabric.routers[src].counters.crc_ops += n;
        // Re-transmissions join the BACK of the source queue: pushing
        // them in front would interleave with a partially injected
        // packet's remaining flits and can deadlock the NI FIFO.
        fabric.nis.extend(src, flits);
        cx.probe.e2e_retx(f, at, cx.now);
    }

    /// Phase 4: the traffic generator is polled and new packets enter the NI
    /// injection queues.
    pub(super) fn workload_phase(&mut self, fabric: &mut Fabric, cx: &mut Cx) {
        let now = cx.now;
        for node in 0..fabric.routers.len() {
            if let Some(dest) = self.traffic.poll(now, node, self.outstanding[node]) {
                let packet_id = self.next_packet_id;
                let flits =
                    make_packet(packet_id, self.next_flit_id, node as u16, dest as u16, now);
                self.next_packet_id += 1;
                self.next_flit_id += FLITS_PER_PACKET as u64;
                cx.stats.packets_injected += 1;
                self.outstanding[node] += 1;
                // Closed-loop bookkeeping: bind the packet id to the pending
                // transaction role BEFORE the reachability check below, so a
                // drop-at-injection still resolves to its transaction.
                self.traffic.on_injected(packet_id);
                cx.probe.inject(packet_id, node as u16, dest as u16, now, || {
                    self.traffic.packet_txn(packet_id)
                });
                if cx.health.fs_split(node, dest) {
                    // The destination can never be reached (dead source or
                    // dest router, or a mesh split): account the loss at
                    // injection instead of letting the packet wedge the NI.
                    self.account_drop(cx, &flits[0]);
                    continue;
                }
                if cx.cfg.e2e_crc {
                    // e2e CRC encode at the source NI.
                    fabric.routers[node].counters.crc_ops += FLITS_PER_PACKET as u64;
                }
                fabric.nis.extend(node, flits);
            }
        }
    }

    /// End-to-end recovery for a packet disturbed by a hard fault or out of
    /// hop-retry budget: purges its in-flight flits, then re-injects it
    /// from the source NI with a bumped generation — or, when the budget is
    /// exhausted or no route survives, accounts it as dropped.
    pub(super) fn salvage_or_drop(&mut self, fabric: &mut Fabric, cx: &mut Cx, f: Flit) {
        fabric.purge_packet(f.packet_id);
        if self.dropped_ids.contains(&f.packet_id) {
            return;
        }
        // Preserved divergence (DESIGN.md §7, `e2e-retx-carry`): a salvaged
        // packet restarts with a full hop-retry budget, reported at its
        // source.
        self.recover_or_drop(fabric, cx, &f, f.src as usize, 0);
    }

    /// Re-sends the packet of `f` end to end while its generation budget
    /// lasts and a route survives, and accounts it as dropped otherwise.
    /// Intermittent outages don't disqualify a re-send: the packet simply
    /// waits them out in the source NI queue.
    fn recover_or_drop(
        &mut self,
        fabric: &mut Fabric,
        cx: &mut Cx,
        f: &Flit,
        at: usize,
        retx: u16,
    ) {
        let budget_ok = u32::from(f.generation) < cx.cfg.max_retx;
        if budget_ok && !cx.health.fs_split(f.src as usize, f.dest as usize) {
            self.reinject(fabric, cx, f, at, retx);
        } else {
            self.account_drop(cx, f);
        }
    }

    /// Accounts a packet as permanently lost. Idempotent per packet id.
    fn account_drop(&mut self, cx: &mut Cx, f: &Flit) {
        if !self.dropped_ids.insert(f.packet_id) {
            return;
        }
        cx.probe.drop(f, cx.now);
        let src = f.src as usize;
        cx.stats.packets_dropped += 1;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.traffic.on_dropped(cx.now, f.packet_id);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Rig;
    use super::*;
    use crate::config::SimConfig;
    use crate::topology::{slot, Mesh};

    /// End-to-end recovery of a head a traversal escalated past its hop
    /// budget: flit `index` of packet 1 (`3 → 5` on a 3x3 mesh), waiting on
    /// channel `3 → 4` with `retx` hop retries spent, optionally behind
    /// another packet's flit. The packet leaves the mesh for its source NI
    /// as four clean flits of the next generation while the generation
    /// budget lasts, and for the drop ledger past it.
    fn check_escalated_head_recovery(
        max_retx: u32,
        (index, retx, generation): (usize, u16, u16),
        behind_another_packet: bool,
    ) {
        let src = 3;
        let cfg =
            SimConfig { width: 3, height: 3, channel_capacity: 4, max_retx, ..Default::default() };
        let mut rig = Rig::new(cfg);
        rig.stats.packets_injected = 1;
        rig.ends.outstanding[src] = 1;
        let ci = slot(src, Port::XPlus);
        if behind_another_packet {
            rig.fabric.links.push_delayed(ci, make_packet(9, 36, src as u16, 5, 0)[0], 0, 0);
        }
        let mut head = make_packet(1, 4, src as u16, 5, 0)[index];
        (head.retx, head.generation, head.e2e_flips) = (retx, generation, 1);
        rig.fabric.links.push_delayed(ci, head, 0, 0);
        let (fabric, ends, mut cx) = rig.parts(5);
        ends.salvage_or_drop(fabric, &mut cx, head);

        let (resent, dropped) = (rig.stats.e2e_retx_packets, rig.stats.packets_dropped);
        assert_eq!(resent + dropped, 1);
        assert_eq!(resent == 1, u32::from(generation) < max_retx);
        let on_links: Vec<u64> = rig.fabric.links.flits().map(|(_, f)| f.packet_id).collect();
        assert_eq!(on_links, if behind_another_packet { vec![9] } else { vec![] });
        let resend = &rig.fabric.nis[src].inject;
        assert_eq!(resend.len(), 4 * resent as usize);
        for f in resend {
            assert_eq!((f.e2e_flips, f.hop_flips, f.retx), (0, 0, 0));
            assert_eq!(f.generation, generation + 1);
        }
        assert_eq!(rig.ends.outstanding[src], 1 - dropped as usize);
        assert_eq!(rig.fabric.links.index_drift(), None);
        assert_eq!(rig.fabric.nis.index_drift(), None);
    }

    /// The routers the latency credit used to walk: `xy_route` then
    /// `neighbor`, hop by hop from the source to the destination.
    fn credited_by_routing(mesh: &Mesh, src: usize, dest: usize) -> Vec<usize> {
        let mut path = vec![src];
        while path[path.len() - 1] != dest {
            let here = path[path.len() - 1];
            path.push(mesh.neighbor(here, mesh.xy_route(here, dest)).expect("XY stays on mesh"));
        }
        path
    }

    /// A delivered packet credits its latency to every router of its XY
    /// path, from the source's and destination's coordinates: the same
    /// routers the route-by-route walk credits, for every (src, dst) pair.
    #[test]
    fn latency_credit_walks_the_xy_path() {
        for (width, height) in [(5, 3), (1, 4)] {
            let mut rig = Rig::new(SimConfig { width, height, ..Default::default() });
            let mesh = rig.fabric.mesh;
            let credited = |rig: &Rig| -> Vec<(u64, u64)> {
                let steps = rig.fabric.routers.iter().map(|r| &r.step);
                steps.map(|s| (s.ejected_packets, s.ejected_latency_sum)).collect()
            };
            for src in 0..mesh.nodes() {
                for dest in 0..mesh.nodes() {
                    let mut want = credited(&rig);
                    for n in credited_by_routing(&mesh, src, dest) {
                        (want[n].0, want[n].1) = (want[n].0 + 1, want[n].1 + 11);
                    }
                    let packet = (src * mesh.nodes() + dest) as u64;
                    let (fabric, ends, mut cx) = rig.parts(10);
                    for flit in make_packet(packet, 4 * packet, src as u16, dest as u16, 0) {
                        ends.eject(fabric, &mut cx, dest, flit);
                    }
                    assert_eq!(credited(&rig), want, "{width}x{height}: {src} -> {dest}");
                }
            }
        }
    }

    /// Two packets ejected flit by flit in turn at one NI reassemble apart:
    /// each completes with its own flit and flip counts, and purging a
    /// third leaves the reassembly beside it untouched.
    #[test]
    fn interleaved_packets_reassemble_apart() {
        let mut rig =
            Rig::new(SimConfig { width: 3, height: 3, e2e_crc: false, ..Default::default() });
        let packet = |id: u64, src: u16, flips: u16| {
            make_packet(id, 4 * id, src, 4, 0).map(|f| Flit { e2e_flips: flips, ..f })
        };
        let (clean, dirty, purged) = (packet(1, 0, 0), packet(2, 3, 1), packet(3, 8, 0));
        let (fabric, ends, mut cx) = rig.parts(10);
        let held = |fabric: &Fabric, id: u64| {
            let recv = &fabric.nis[4].recv;
            recv.iter().find(|&&(p, _)| p == id).map(|(_, s)| (s.flits, s.flips))
        };
        for i in 0..3 {
            for f in [clean[i], dirty[i], purged[i]] {
                ends.eject(fabric, &mut cx, 4, f);
            }
        }
        assert_eq!(
            [1, 2, 3].map(|id| held(fabric, id)),
            [Some((3, 0)), Some((3, 3)), Some((3, 0))]
        );
        fabric.nis.purge_packet(3);
        assert_eq!([1, 2, 3].map(|id| held(fabric, id)), [Some((3, 0)), Some((3, 3)), None]);
        ends.eject(fabric, &mut cx, 4, dirty[3]);
        assert_eq!([held(fabric, 1), held(fabric, 2)], [Some((3, 0)), None]);
        assert_eq!((cx.stats.packets_delivered, cx.stats.corrupted_packets), (1, 1));
        ends.eject(fabric, &mut cx, 4, clean[3]);
        assert!(fabric.nis[4].recv.is_empty(), "both reassemblies completed");
        assert_eq!((cx.stats.packets_delivered, cx.stats.corrupted_packets), (2, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// Every hop budget, flit of the packet, hop retries spent past the
        /// budget, and generation.
        #[test]
        fn escalated_head_leaves_the_mesh_resent_or_dropped(
            max_retx in 1u32..4,
            flit in (0usize..4, 0u16..4, 0u16..4),
            behind_another_packet in 0u8..2,
        ) {
            check_escalated_head_recovery(max_retx, flit, behind_another_packet == 1);
        }
    }
}
