//! Text dumps of stuck state for the stall watchdog's
//! [`StallReport`](crate::stats::StallReport). Read-only.

use super::Network;
use crate::topology::{Port, PORTS};
use std::fmt::Write as _;

impl Network {
    /// Per-channel blocking detail, one line per non-empty channel, at most
    /// `limit` lines.
    pub(super) fn snapshot_blocked(&self, limit: usize) -> String {
        let mut out = String::new();
        let now = self.now;
        let mut shown = 0;
        for u in 0..self.mesh.nodes() {
            for dir in Port::DIRECTIONS {
                let Some(v) = self.mesh.neighbor(u, dir) else { continue };
                let ci = self.channel_index(u, dir);
                let Some(ch) = self.links.get(ci) else { continue };
                if ch.occupancy() == 0 {
                    continue;
                }
                let in_port = dir.opposite().index();
                let f = ch.get(0);
                let vcs: Vec<String> = self.routers[v]
                    .port_vcs(in_port)
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
                let _ = writeln!(
                    out,
                    "ch {u}->{v} ({dir:?}) occ={} front: pkt={} kind={:?} vc={} ready={} dest={} | down on={} vcs={}",
                    ch.occupancy(),
                    f.packet_id,
                    f.kind,
                    f.vc,
                    ch.peek_ready(now).is_some(),
                    f.dest,
                    self.routers[v].is_on(),
                    vcs.join(" ")
                );
                shown += 1;
                if shown >= limit {
                    return out;
                }
            }
        }
        out
    }

    /// One line per router that holds anything: buffered flits, NI queues,
    /// reassembly state, outgoing channels, reserved or bound VCs.
    pub(super) fn snapshot_dump(&self) -> String {
        let mut out = String::new();
        for r in 0..self.mesh.nodes() {
            let router = &self.routers[r];
            let occ = router.occupancy();
            let ni = self.nis[r].inject.len();
            let recv = self.nis[r].recv.len();
            let vcs = || (0..PORTS).flat_map(|p| router.port_vcs(p));
            let reserved = vcs().filter(|vc| vc.reserved_by().is_some()).count();
            let bound = vcs().filter(|vc| vc.packet().is_some()).count();
            let mut ch_occ = 0;
            for dir in Port::DIRECTIONS {
                if let Some(ch) = self.links.get(self.channel_index(r, dir)) {
                    ch_occ += ch.occupancy();
                }
            }
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
