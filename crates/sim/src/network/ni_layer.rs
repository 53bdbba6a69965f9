//! The NI layer: where packets enter and leave the mesh — workload
//! injection into the source NI queues, NI-to-router injection, acceptance
//! of a flit into an input VC, ejection with reassembly and the end-to-end
//! CRC, and the one end-to-end re-send.
//!
//! Owners mutated: [`Nis`](crate::ni::Nis) through `extend`, `pop_front`
//! and `recv_mut`; [`Router`](crate::router::Router) through `enqueue`
//! (only in [`Network::accept`]). A flit that continues without a VC goes
//! out through [`Network::forward`] (`link_layer`); losses are accounted by
//! [`Network::account_drop`] (`recovery`).

use super::link_layer::{Landing, Sender};
use super::Network;
use crate::flit::{make_packet, Flit, FLITS_PER_PACKET, NO_VC};
use crate::topology::Port;
use noc_ecc::{DecodeStatus, EccScheme};

impl Network {
    /// Phase 2b: NI injection into powered local ports (one flit per
    /// cycle), over the non-empty injection queues in ascending node order.
    pub(super) fn ni_injection(&mut self) {
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
            let landing =
                if head.is_head() || self.routers[r].bound_vc(in_port, head.packet_id).is_some() {
                    let Some(vc) = self.routers[r].accept_target(in_port, head) else { continue };
                    Landing::Vc(vc)
                } else {
                    Landing::Latch
                };
            let span = if head.is_head() { self.probe.leaf_enter("route.compute") } else { None };
            let route = self.landing_hop(r, Port::Local, head, landing);
            self.probe.leaf_exit(span, 0);
            let Some(route) = route else {
                continue; // destination unreachable right now: wait in the NI
            };
            match landing {
                Landing::Vc(vc) => {
                    let flit = self.nis.pop_front(r).expect("checked nonempty");
                    self.routers[r].step.in_flits[in_port] += 1;
                    self.accept(r, in_port, vc, &flit, route);
                }
                Landing::Latch => {
                    let open = route != Port::Local
                        && self.health.usable(r, route)
                        && self.links.has_space(self.channel_index(r, route));
                    if open {
                        let mut flit = self.nis.pop_front(r).expect("checked nonempty");
                        flit.hop_scheme = EccScheme::None;
                        flit.vc = NO_VC;
                        self.forward(r, route, &flit, Sender::Latch(Port::Local));
                    }
                }
            }
        }
    }

    /// A route was computed for a new packet's head at router `r`: accounts
    /// a detour when fault-aware routing left the XY path.
    pub(super) fn head_routed(&mut self, r: usize, head: &Flit, route: Port) {
        let xy = self.mesh.xy_route(r, head.dest as usize);
        if route != xy {
            self.stats.reroutes += 1;
            let (from, to) = (xy.index() as u8, route.index() as u8);
            self.probe.reroute(head.packet_id, r, from, to, self.now);
        }
    }

    /// The one VC accept: `flit` enters input VC `vc` of port `in_port` of
    /// powered router `r`, bound for `route`. A head starts the router
    /// pipeline; body flits stream one cycle behind.
    pub(super) fn accept(&mut self, r: usize, in_port: usize, vc: usize, flit: &Flit, route: Port) {
        let now = self.now;
        let mut ready = now + 1;
        if flit.is_head() {
            self.head_routed(r, flit, route);
            let fill = self.cfg.pipeline_latency as u64;
            self.probe.pipeline(flit.packet_id, r as u16, fill, now);
            ready = now + fill;
        }
        let router = &mut self.routers[r];
        router.counters.buffer_writes += 1;
        router.enqueue(in_port, vc, *flit, route, ready);
        self.probe.span_count(1, 1); // buffered into an input VC
    }

    /// Ejects `flit` at its destination NI, recorded as an `eject` leaf
    /// span under whichever phase delivered it.
    pub(super) fn eject(&mut self, r: usize, flit: Flit) {
        let span = self.probe.leaf_enter("eject");
        self.eject_inner(r, flit);
        self.probe.leaf_exit(span, 1);
    }

    fn eject_inner(&mut self, r: usize, mut flit: Flit) {
        debug_assert_eq!(flit.dest as usize, r, "flit ejected at wrong node");
        if flit.is_head() {
            self.probe.head_eject(&flit, self.now);
        }
        // A flit ejected straight off the bypass still carries undecoded
        // per-hop codeword corruption; it surfaces at the NI.
        flit.e2e_flips = flit.e2e_flips.saturating_add(flit.hop_flips);
        flit.hop_flips = 0;
        let mut crc_failed_now = false;
        if self.cfg.e2e_crc {
            self.routers[r].counters.crc_ops += 1; // e2e decode
            if flit.e2e_flips > 0 {
                let payload = flit.payload();
                let mut cw = self.suite.encode(EccScheme::Crc, payload);
                let bits = cw.len();
                let k = (flit.e2e_flips as usize).min(bits) as u32;
                for pos in self.injector.choose_positions(bits, k) {
                    cw.flip_bit(pos);
                }
                let (_, status) = self.suite.decode(EccScheme::Crc, &cw);
                crc_failed_now = status == DecodeStatus::Detected;
            }
        }
        let entry = self.nis.recv_mut(r).entry(flit.packet_id).or_default();
        entry.flits += 1;
        entry.flips += flit.e2e_flips as u32;
        entry.crc_failed |= crc_failed_now;
        if entry.flits < FLITS_PER_PACKET {
            return;
        }
        let state = self.nis.recv_mut(r).remove(&flit.packet_id).expect("entry exists");
        if state.crc_failed {
            // The source NI re-sends the packet — or, past the generation
            // budget or across a fail-stop split, it is accounted as lost
            // rather than retried forever. Preserved divergence (DESIGN.md
            // §7, `e2e-retx-carry`): a CRC re-send carries the hop-retry
            // count on, one higher, and is reported at the destination.
            self.recover_or_drop(&flit, r, flit.retx + 1);
            return;
        }
        // Final delivery.
        let latency = self.now + 1 - flit.injected_at;
        self.probe.complete(&flit, self.now, latency);
        self.stats.packets_delivered += 1;
        self.stats.latency_sum += latency;
        self.stats.latency_max = self.stats.latency_max.max(latency);
        self.stats.latency_hist.record(latency);
        self.stats.last_delivery = self.now + 1;
        if state.flips > 0 {
            self.stats.corrupted_packets += 1;
        }
        let src = flit.src as usize;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.traffic.on_delivered(self.now, flit.packet_id);
        // Paper Section 5: router i's latency covers "each flit transmission
        // within the time step" — every router that transmitted the packet.
        // Credit the whole XY path so a misconfigured router feels the
        // latency of the through-traffic it hurt.
        let mut here = src;
        loop {
            let step = &mut self.routers[here].step;
            step.ejected_latency_sum += latency;
            step.ejected_packets += 1;
            if here == r {
                break;
            }
            let p = self.mesh.xy_route(here, r);
            here = self.health.neighbor(here, p).expect("XY route stays on mesh");
        }
    }

    /// The one end-to-end re-send: the source NI re-injects the packet of
    /// `f` as a new generation, its flits starting with `retx` hop retries
    /// already spent. `at` is the router the event is reported at.
    pub(super) fn reinject(&mut self, f: &Flit, at: usize, retx: u16) {
        let n = FLITS_PER_PACKET as u64;
        self.stats.e2e_retx_packets += 1;
        self.stats.retransmitted_flits += n;
        let src = f.src as usize;
        let mut flits = make_packet(f.packet_id, self.next_flit_id, f.src, f.dest, f.injected_at);
        self.next_flit_id += n;
        for nf in &mut flits {
            nf.retx = retx;
            nf.generation = f.generation + 1;
        }
        // e2e CRC re-encode energy at the source.
        self.routers[src].counters.crc_ops += n;
        // Re-transmissions join the BACK of the source queue: pushing
        // them in front would interleave with a partially injected
        // packet's remaining flits and can deadlock the NI FIFO.
        self.nis.extend(src, flits);
        self.probe.e2e_retx(f, at, self.now);
    }

    /// Phase 4: the traffic generator is polled and new packets enter the NI
    /// injection queues.
    pub(super) fn workload_phase(&mut self) {
        let now = self.now;
        for node in 0..self.mesh.nodes() {
            if let Some(dest) = self.traffic.poll(now, node, self.outstanding[node]) {
                let packet_id = self.next_packet_id;
                let flits =
                    make_packet(packet_id, self.next_flit_id, node as u16, dest as u16, now);
                self.next_packet_id += 1;
                self.next_flit_id += FLITS_PER_PACKET as u64;
                self.stats.packets_injected += 1;
                self.outstanding[node] += 1;
                // Closed-loop bookkeeping: bind the packet id to the pending
                // transaction role BEFORE the reachability check below, so a
                // drop-at-injection still resolves to its transaction.
                self.traffic.on_injected(packet_id);
                self.probe.inject(packet_id, node as u16, dest as u16, now, || {
                    self.traffic.packet_txn(packet_id)
                });
                if self.health.fs_split(node, dest) {
                    // The destination can never be reached (dead source or
                    // dest router, or a mesh split): account the loss at
                    // injection instead of letting the packet wedge the NI.
                    self.account_drop(&flits[0]);
                    continue;
                }
                if self.cfg.e2e_crc {
                    // e2e CRC encode at the source NI.
                    self.routers[node].counters.crc_ops += FLITS_PER_PACKET as u64;
                }
                self.nis.extend(node, flits);
            }
        }
    }
}
