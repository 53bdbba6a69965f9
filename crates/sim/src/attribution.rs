//! Per-flit latency attribution and spatial accumulators.
//!
//! When installed on a [`crate::Network`] (see `ProbeConfig::attribution`),
//! this module follows every packet's head flit through the pipeline and
//! charges each measured delay — link crossings, router pipeline stages,
//! hop-NACK stalls, bypass latches, wasted end-to-end generations, tail
//! drain — to one latency component. The charged intervals are disjoint
//! sub-intervals of the packet's lifetime, so the residual (queuing) is
//! non-negative and the components sum *exactly* to the measured end-to-end
//! latency (checked by a `debug_assert` at completion).
//!
//! Alongside the per-packet spans it keeps per-channel and per-router
//! counters (flits carried, NACKs, gated residency, temperature) that fold
//! into heatmap grids and per-physical-link statistics at run end.

use crate::flit::{Cycle, Flit};
use crate::topology::{Mesh, Port, DIRS};
use noc_telemetry::{
    AttributionArtifacts, HeatGrid, LatencyBreakdown, LatencyComponents, LinkStat, PacketLatency,
};
use std::collections::HashMap;

/// Live accounting for one in-flight packet.
#[derive(Debug, Clone, Copy, Default)]
struct PacketSpan {
    /// Start of the current end-to-end generation (injection time for the
    /// first one, retransmission time afterwards).
    gen_start: Cycle,
    /// When the head flit of the current generation ejected, if it has.
    head_eject: Option<Cycle>,
    /// Link + pipeline cycles charged to the current generation's head.
    gen_traversal: u64,
    /// Bypass-latch cycles charged to the current generation's head.
    gen_bypass: u64,
    /// Hop-NACK stall cycles charged to the current generation's head.
    gen_retx: u64,
    /// Whole wasted generations, in cycles (charged at each e2e retx).
    retx_wasted: u64,
    /// Powered link crossings of the current generation's head.
    hops: u16,
    /// Bypass crossings of the current generation's head.
    bypass_hops: u16,
    /// Hop-level NACKs over the packet's whole lifetime (any flit).
    hop_retx: u16,
    /// End-to-end retransmissions so far.
    e2e_retx: u16,
}

/// The attribution engine: per-packet spans plus spatial accumulators.
///
/// All hooks are `O(1)`; the simulator calls them only when attribution is
/// installed, so the disabled path stays a single `Option` branch.
#[derive(Debug)]
pub(crate) struct Attribution {
    spans: HashMap<u64, PacketSpan>,
    breakdown: LatencyBreakdown,
    /// Flits pushed into each directed channel (indexed like
    /// `Network::channels`: `router * DIRS + dir`).
    link_flits: Vec<u64>,
    /// Hop-NACKs charged to each directed channel.
    link_retx: Vec<u64>,
    /// Cycles each router spent gated, waking, or hard-failed.
    router_gated: Vec<u64>,
    /// Cycles the gated-residency counters cover.
    gate_cycles: u64,
    /// Temperature sums per router, sampled once per epoch.
    temp_sum: Vec<f64>,
    /// Epochs sampled into `temp_sum`.
    temp_epochs: u64,
}

impl Attribution {
    pub(crate) fn new(nodes: usize) -> Self {
        Attribution {
            spans: HashMap::new(),
            breakdown: LatencyBreakdown::default(),
            link_flits: vec![0; nodes * DIRS],
            link_retx: vec![0; nodes * DIRS],
            router_gated: vec![0; nodes],
            gate_cycles: 0,
            temp_sum: vec![0.0; nodes],
            temp_epochs: 0,
        }
    }

    /// A packet entered the source NI queue.
    pub(crate) fn on_inject(&mut self, packet: u64, now: Cycle) {
        self.spans.insert(packet, PacketSpan { gen_start: now, ..PacketSpan::default() });
    }

    /// A flit was pushed into directed channel `ci`; `cost` is the cycles
    /// until it becomes consumable downstream.
    pub(crate) fn on_link_flit(&mut self, ci: usize, flit: &Flit, cost: u64, bypass: bool) {
        self.link_flits[ci] += 1;
        if !flit.is_head() {
            return;
        }
        if let Some(span) = self.spans.get_mut(&flit.packet_id) {
            if bypass {
                span.gen_bypass += cost;
                span.bypass_hops = span.bypass_hops.saturating_add(1);
            } else {
                span.gen_traversal += cost;
                span.hops = span.hops.saturating_add(1);
            }
        }
    }

    /// A head flit was enqueued into a VC with `cost` pipeline cycles before
    /// it can be granted.
    pub(crate) fn on_pipeline(&mut self, packet: u64, cost: u64) {
        if let Some(span) = self.spans.get_mut(&packet) {
            span.gen_traversal += cost;
        }
    }

    /// A flit held in directed channel `ci` was NACKed and will be
    /// retransmitted after `cost` stall cycles.
    pub(crate) fn on_hop_retx(&mut self, ci: usize, flit: &Flit, cost: u64) {
        self.link_retx[ci] += 1;
        if let Some(span) = self.spans.get_mut(&flit.packet_id) {
            span.hop_retx = span.hop_retx.saturating_add(1);
            if flit.is_head() {
                span.gen_retx += cost;
            }
        }
    }

    /// The e2e CRC failed and the packet restarts from the source NI. The
    /// whole wasted generation `[gen_start, now)` is charged to
    /// retransmission and the per-generation accumulators reset, so nothing
    /// inside the wasted interval is double counted.
    pub(crate) fn on_e2e_retx(&mut self, packet: u64, now: Cycle) {
        if let Some(span) = self.spans.get_mut(&packet) {
            span.retx_wasted += now.saturating_sub(span.gen_start);
            span.gen_start = now;
            span.head_eject = None;
            span.gen_traversal = 0;
            span.gen_bypass = 0;
            span.gen_retx = 0;
            span.hops = 0;
            span.bypass_hops = 0;
            span.e2e_retx = span.e2e_retx.saturating_add(1);
        }
    }

    /// The head flit of the current generation ejected at the destination.
    pub(crate) fn on_head_eject(&mut self, packet: u64, now: Cycle) {
        if let Some(span) = self.spans.get_mut(&packet) {
            span.head_eject = Some(now);
        }
    }

    /// The tail flit ejected and the packet completed with the measured
    /// end-to-end `latency` (which spans `[injected_at, now + 1)`). Returns
    /// the recorded components — the reference the journey spans are
    /// checked against — or `None` for a packet it never saw injected.
    pub(crate) fn on_complete(
        &mut self,
        packet: u64,
        src: u16,
        dest: u16,
        now: Cycle,
        latency: u64,
    ) -> Option<LatencyComponents> {
        let span = self.spans.remove(&packet)?;
        let components = LatencyComponents {
            queuing: 0,
            traversal: span.gen_traversal,
            serialization: now.saturating_sub(span.head_eject.unwrap_or(now)),
            retransmission: span.retx_wasted + span.gen_retx,
            bypass: span.gen_bypass,
            ejection: 1,
        };
        let measured = components.total();
        debug_assert!(
            measured <= latency,
            "packet {packet}: charged {measured} cycles > measured latency {latency}"
        );
        let components =
            LatencyComponents { queuing: latency.saturating_sub(measured), ..components };
        debug_assert_eq!(components.total(), latency, "packet {packet}: components must sum");
        self.breakdown.record(PacketLatency {
            packet,
            src,
            dest,
            latency,
            components,
            hops: span.hops,
            bypass_hops: span.bypass_hops,
            hop_retx: span.hop_retx,
            e2e_retx: span.e2e_retx,
        });
        Some(components)
    }

    /// The packet was dropped; forget its span.
    pub(crate) fn on_drop(&mut self, packet: u64) {
        self.spans.remove(&packet);
    }

    /// One gating-phase cycle; `gated` yields the routers that are gated,
    /// waking or hard-failed in it.
    pub(crate) fn on_gate_cycle(&mut self, gated: impl Iterator<Item = usize>) {
        self.gate_cycles += 1;
        gated.for_each(|r| self.router_gated[r] += 1);
    }

    /// One epoch's temperature sample per router, in router order.
    pub(crate) fn on_temp_epoch(&mut self, temps_c: impl Iterator<Item = f64>) {
        self.temp_epochs += 1;
        self.temp_sum.iter_mut().zip(temps_c).for_each(|(sum, t)| *sum += t);
    }

    /// Folds the accumulators into renderable artifacts. `cycles` is the
    /// simulated span the utilization figures normalize against.
    pub(crate) fn finish(self, mesh: &Mesh, cycles: u64) -> AttributionArtifacts {
        let nodes = mesh.nodes();
        let denom = cycles.max(1) as f64;

        // 2·width·height − width − height physical links on a mesh: fold the
        // two directed channels of each XPlus/YPlus edge together.
        let mut links = Vec::new();
        for r in 0..nodes {
            for dir in [Port::XPlus, Port::YPlus] {
                if let Some(v) = mesh.neighbor(r, dir) {
                    let fwd = r * DIRS + dir.index();
                    let rev = v * DIRS + dir.opposite().index();
                    links.push(LinkStat {
                        a: r as u32,
                        b: v as u32,
                        flits: self.link_flits[fwd] + self.link_flits[rev],
                        retx: self.link_retx[fwd] + self.link_retx[rev],
                    });
                }
            }
        }
        links.sort_by_key(|l| (l.a, l.b));

        let mut utilization = HeatGrid::new("router_utilization", mesh.width, mesh.height);
        let mut retx = HeatGrid::new("router_retx", mesh.width, mesh.height);
        let mut residency = HeatGrid::new("router_gate_residency", mesh.width, mesh.height);
        let mut temperature = HeatGrid::new("router_temperature", mesh.width, mesh.height);
        for r in 0..nodes {
            let flits: u64 = self.link_flits[r * DIRS..(r + 1) * DIRS].iter().sum();
            let nacks: u64 = self.link_retx[r * DIRS..(r + 1) * DIRS].iter().sum();
            utilization.cells[r] = flits as f64 / denom;
            retx.cells[r] = nacks as f64;
            residency.cells[r] = self.router_gated[r] as f64 / self.gate_cycles.max(1) as f64;
            temperature.cells[r] = self.temp_sum[r] / self.temp_epochs.max(1) as f64;
        }

        AttributionArtifacts {
            breakdown: self.breakdown,
            links,
            grids: vec![utilization, retx, residency, temperature],
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;

    fn head(packet: u64) -> Flit {
        make_packet(packet, 0, 0, 5, 0)[0]
    }

    #[test]
    fn components_sum_exactly_without_retx() {
        let mesh = Mesh::new(8, 8);
        let mut att = Attribution::new(mesh.nodes());
        att.on_inject(7, 100);
        att.on_pipeline(7, 4);
        att.on_link_flit(0, &head(7), 1, false);
        att.on_link_flit(4, &head(7), 1, false);
        att.on_head_eject(7, 130);
        att.on_complete(7, 0, 5, 133, 34); // injected_at 100, done at 133+1
        let bd = &att.breakdown;
        assert_eq!(bd.packets, 1);
        let rec = bd.records[0];
        assert_eq!(rec.components.total(), 34);
        assert_eq!(rec.components.traversal, 6);
        assert_eq!(rec.components.serialization, 3);
        assert_eq!(rec.components.ejection, 1);
        assert_eq!(rec.components.queuing, 34 - 6 - 3 - 1);
        assert_eq!(rec.hops, 2);
    }

    #[test]
    fn e2e_retx_charges_whole_wasted_generation() {
        let mesh = Mesh::new(8, 8);
        let mut att = Attribution::new(mesh.nodes());
        att.on_inject(9, 50);
        att.on_pipeline(9, 4);
        att.on_link_flit(0, &head(9), 1, false);
        att.on_head_eject(9, 70);
        att.on_e2e_retx(9, 80); // generation [50, 80) wasted
        att.on_pipeline(9, 4);
        att.on_head_eject(9, 95);
        att.on_complete(9, 0, 5, 99, 50); // [50, 100)
        let rec = att.breakdown.records[0];
        assert_eq!(rec.components.retransmission, 30);
        assert_eq!(rec.components.traversal, 4, "wasted generation's charges were reset");
        assert_eq!(rec.e2e_retx, 1);
        assert_eq!(rec.components.total(), 50);
    }

    #[test]
    fn finish_folds_directed_channels_into_physical_links() {
        let mesh = Mesh::new(8, 8);
        let mut att = Attribution::new(mesh.nodes());
        // One flit each way across the 0 <-> 1 link.
        att.on_link_flit(Port::XPlus.index(), &head(1), 1, false);
        att.on_link_flit(DIRS + Port::XMinus.index(), &head(2), 1, false);
        let art = att.finish(&mesh, 1000);
        assert_eq!(art.links.len(), 112, "8x8 mesh has 112 physical links");
        let l01 = art.links.iter().find(|l| l.a == 0 && l.b == 1).unwrap();
        assert_eq!(l01.flits, 2);
        assert_eq!(art.grids.len(), 4);
        assert_eq!(art.grids[0].cells.len(), 64);
    }
}
