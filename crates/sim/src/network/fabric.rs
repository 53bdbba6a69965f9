//! The fabric: every place a flit can sit — router VCs, channels and NI
//! queues — with the occupancy and ownership checks over them, the one
//! purge, and the text dumps of stuck state for the stall watchdog's
//! [`StallReport`](crate::stats::StallReport). The layers move flits
//! between these places through the owners' mutators; see `link_layer`,
//! `router_layer` and `ni_layer`.

use super::Fabric;
use crate::channel::Channel;
use crate::flit::Cycle;
use crate::topology::{slot, unslot, Port, PORTS};
use std::fmt::Write as _;

impl Fabric {
    /// Compares the occupancy index (per-router buffered counts, VC tables
    /// and readiness masks, per-router inbound-flit counts, the non-empty
    /// channel set and the non-empty NI set) with a from-scratch recount of
    /// every queue, then checks the ownership invariant
    /// ([`Fabric::ownership_drift`]). `None` means all hold; `Some(what)`
    /// names the first mismatch. `now` is the cycle about to run.
    pub(super) fn occupancy_index_drift(&self, now: Cycle) -> Option<String> {
        // `ready` bits were promoted during the cycle that just ended.
        let promoted_at = now.saturating_sub(1);
        self.routers
            .iter()
            .find_map(|r| r.index_drift(promoted_at))
            .or_else(|| self.links.index_drift())
            .or_else(|| self.nis.index_drift())
            .or_else(|| self.ownership_drift())
    }

    /// The ownership invariant: whatever a packet holds of a router, a flit
    /// of it is still in the network to release it — the head of a reserved
    /// VC on the channel feeding that port, a flit of a bound VC or of a
    /// continuation record in some channel, VC queue or NI injection queue.
    /// A holding that outlives its packet is a leak: the VC never frees, so
    /// the port runs out of VCs and the router can never gate again.
    /// Names the first one found.
    fn ownership_drift(&self) -> Option<String> {
        // Sorted ids of every packet with a flit somewhere, built when first
        // needed: a VC with flits queued proves its owner by itself.
        let mut resident: Option<Vec<u64>> = None;
        for (r, router) in self.routers.iter().enumerate() {
            for h in router.holdings().filter(|h| h.queued == 0) {
                let (present, gone) = match h.out {
                    None => {
                        let feeding = self.links.feeding(r, h.in_port);
                        let on_it = feeding.and_then(|ci| self.links.get(ci)).is_some_and(|ch| {
                            ch.flits().any(|f| f.packet_id == h.packet && f.is_head())
                        });
                        (on_it, "not on the channel feeding it")
                    }
                    Some(_) => {
                        let ids = resident.get_or_insert_with(|| self.resident_packets());
                        (ids.binary_search(&h.packet).is_ok(), "nowhere in the network")
                    }
                };
                if !present {
                    return Some(format!("router {r} {h}, which is {gone}"));
                }
            }
        }
        None
    }

    /// Sorted, deduplicated ids of the packets with a flit in a channel, an
    /// input VC or an NI injection queue.
    fn resident_packets(&self) -> Vec<u64> {
        let on_links = self.links.flits().map(|(_, f)| f.packet_id);
        let queued = self.routers.iter().flat_map(|r| r.queued_flits()).map(|f| f.packet_id);
        let waiting = (0..self.mesh.nodes()).flat_map(|r| &self.nis[r].inject).map(|f| f.packet_id);
        let mut ids: Vec<u64> = on_links.chain(queued).chain(waiting).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
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

    /// Per-channel blocking detail at cycle `now`, one line per non-empty
    /// channel in slot order, at most `limit` lines.
    pub(super) fn snapshot_blocked(&self, now: Cycle, limit: usize) -> Vec<String> {
        let busy = self.links.channels().filter(|(_, ch)| ch.occupancy() > 0);
        let line = |(ci, ch): (usize, &Channel)| {
            let ((u, dir), v) = (unslot(ci), self.links.ends(ci).1);
            let f = ch.get(0);
            let vcs: Vec<String> = self.routers[v]
                .port_vcs(dir.opposite().index())
                .iter()
                .map(|vc| {
                    format!(
                        "[pkt={:?} res={} occ={} route={:?}]",
                        vc.packet(),
                        vc.is_reserved_for(f.packet_id),
                        vc.occupancy(),
                        vc.route()
                    )
                })
                .collect();
            format!(
                "ch {u}->{v} ({dir:?}) occ={} front: pkt={} kind={:?} vc={} ready={} dest={} | down on={} vcs={}",
                ch.occupancy(),
                f.packet_id,
                f.kind,
                f.vc,
                ch.peek_ready(now).is_some(),
                f.dest,
                self.routers[v].is_on(),
                vcs.join(" ")
            )
        };
        busy.take(limit).map(line).collect()
    }

    /// One line per router that holds anything: buffered flits, NI queues,
    /// reassembly state, outgoing channels, reserved or bound VCs.
    pub(super) fn snapshot_dump(&self) -> String {
        let mut out = String::new();
        for (r, router) in self.routers.iter().enumerate() {
            let occ = router.occupancy();
            let ni = self.nis[r].inject.len();
            let recv = self.nis[r].recv.len();
            let vcs = || (0..PORTS).flat_map(|p| router.port_vcs(p));
            let reserved = vcs().filter(|vc| vc.reserved_by().is_some()).count();
            let bound = vcs().filter(|vc| vc.packet().is_some()).count();
            let outgoing = Port::DIRECTIONS.into_iter().filter_map(|d| self.links.get(slot(r, d)));
            let ch_occ: usize = outgoing.map(Channel::occupancy).sum();
            if occ + ni + recv + ch_occ + reserved + bound > 0 {
                let _ = writeln!(
                    out,
                    "router {r}: gate={:?} occ={occ} ni={ni} recv={recv} out_ch={ch_occ} reserved_vcs={reserved} bound_vcs={bound}",
                    router.gate
                );
            }
        }
        out
    }
}
