//! The latency engine: one clock per in-flight packet, plus the spatial
//! accumulators behind the `inspect` artifacts.
//!
//! A [`PacketClock`] follows its packet's head flit and charges each measured
//! delay — link crossings, pipeline fills, hop-NACK stalls, bypass latches,
//! wasted end-to-end generations, tail drain — to the latency component
//! [`JourneyCause::component_index`] names. The charged windows are disjoint
//! sub-intervals of the packet's lifetime, so the residual (queuing) is
//! non-negative and the components sum *exactly* to the measured latency.
//! A packet that journey tracing samples carries a [`Trail`] on its clock,
//! fed by the same call that moves the counters: the counters say *how much*,
//! the trail says *where and when*, and every sampled completion
//! `debug_assert`s that the trail's span sums equal the counters.
//!
//! The clocks live in a [`ClockWindow`] indexed by packet id: the simulator
//! hands ids out in order, so a hook finds its clock by subtraction, with no
//! hashing, and the window spans only the oldest live packet to the newest.
//! A trail comes from a pool the engine refills on completion and on drop,
//! so a sampled packet reuses a span buffer that has already grown; its
//! journey keeps one exact-size copy of the spans.
//!
//! With `ProbeConfig::attribution` every packet has a clock and the engine
//! also keeps per-channel and per-router counters (flits carried, NACKs,
//! gated residency, temperature) that fold into heatmap grids and
//! per-physical-link statistics at run end; with journeys alone only the
//! sampled packets enter the window.

use crate::flit::{Cycle, Flit};
use crate::journey::{JourneyRecorder, Trail};
use crate::topology::{slot, unslot, Mesh, Port, DIRS};
use noc_telemetry::{
    AttributionArtifacts, HeatGrid, JourneyCause, JourneyLoc, JourneyLog, LatencyBreakdown,
    LatencyComponents, LinkStat, PacketJourney,
};
use noc_traffic::TxnEvent;
use std::collections::VecDeque;

/// Live accounting for one in-flight packet.
#[derive(Debug, Default)]
struct PacketClock {
    injected_at: Cycle,
    /// When the head flit of the current generation ejected, if it has.
    head_eject: Option<Cycle>,
    /// Cycles charged so far, per latency component: the current
    /// generation's head charges plus every wasted generation.
    charged: [u64; 6],
    /// The span timeline, for a packet journey tracing sampled.
    trail: Option<Box<Trail>>,
}

impl PacketClock {
    /// Adds `cycles` to the component `cause` charges.
    fn add(&mut self, cause: JourneyCause, cycles: u64) {
        self.charged[cause.component_index().expect("markers carry no cycles")] += cycles;
    }

    /// The head spends `[now, now + cost)` at `loc()` because of `cause`.
    fn charge(
        &mut self,
        now: Cycle,
        cost: u64,
        cause: JourneyCause,
        loc: impl FnOnce() -> JourneyLoc,
    ) {
        self.add(cause, cost);
        if let Some(trail) = self.trail.as_mut() {
            trail.charge(now, cost, loc(), cause);
        }
    }
}

/// The in-flight clocks, indexed by packet id: slot `i` holds packet
/// `base + i`, or nothing once that packet completed or dropped (or was never
/// tracked). Ids only ever arrive at the back, and the empty slots at either
/// end go as soon as their packet leaves, so the window holds exactly `newest
/// live − oldest live + 1` slots.
#[derive(Debug, Default)]
struct ClockWindow {
    base: u64,
    slots: VecDeque<Option<PacketClock>>,
    /// One past the newest id inserted.
    next: u64,
}

impl ClockWindow {
    /// Starts the clock of `packet`, newer than every packet before it.
    fn insert(&mut self, packet: u64, clock: PacketClock) {
        debug_assert!(packet >= self.next, "packet {packet} arrived after {}", self.next - 1);
        self.next = packet + 1;
        if self.slots.is_empty() {
            self.base = packet;
        }
        let at = (packet - self.base) as usize;
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(clock));
    }

    fn get_mut(&mut self, packet: u64) -> Option<&mut PacketClock> {
        let at = usize::try_from(packet.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Stops the clock of `packet`, then drops the empty slots at both ends.
    fn remove(&mut self, packet: u64) -> Option<PacketClock> {
        let at = usize::try_from(packet.checked_sub(self.base)?).ok()?;
        let clock = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(clock)
    }

    /// The clocks still running, oldest first.
    fn live(&self) -> impl Iterator<Item = &PacketClock> {
        self.slots.iter().flatten()
    }
}

/// The latency totals and the per-channel and per-router accumulators, kept
/// when attribution is on.
#[derive(Debug)]
struct Spatial {
    breakdown: LatencyBreakdown,
    /// Flits pushed into each directed channel, indexed by slot.
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

/// The directed channel `ci` of `mesh` (`u16::MAX` downstream on the rim).
fn link_loc(mesh: &Mesh, ci: usize) -> JourneyLoc {
    let (from, dir) = unslot(ci);
    let to = mesh.neighbor(from, dir).map_or(u16::MAX, |d| d as u16);
    JourneyLoc::Link { from: from as u16, to }
}

/// The one in-flight window and what it feeds.
///
/// All hooks are `O(1)` and index the window at most once; the simulator
/// calls them only when the engine is installed, so the disabled path stays
/// a single `Option` branch.
#[derive(Debug)]
pub(crate) struct LatencyEngine {
    mesh: Mesh,
    clocks: ClockWindow,
    /// Finished trails, kept for the next sampled packet. Boxed because a
    /// box moves between a clock and the pool without reallocating.
    #[allow(clippy::vec_box)]
    spare_trails: Vec<Box<Trail>>,
    /// Present iff attribution is on: then every packet has a clock.
    spatial: Option<Spatial>,
    /// Present iff journeys are traced: the sampling rule, the log and the
    /// transaction legs.
    journeys: Option<JourneyRecorder>,
}

impl LatencyEngine {
    pub(crate) fn new(mesh: Mesh, attribution: bool, journeys: Option<JourneyRecorder>) -> Self {
        let nodes = mesh.nodes();
        let spatial = attribution.then(|| Spatial {
            breakdown: LatencyBreakdown::default(),
            link_flits: vec![0; nodes * DIRS],
            link_retx: vec![0; nodes * DIRS],
            router_gated: vec![0; nodes],
            gate_cycles: 0,
            temp_sum: vec![0.0; nodes],
            temp_epochs: 0,
        });
        LatencyEngine {
            mesh,
            clocks: ClockWindow::default(),
            spare_trails: Vec::new(),
            spatial,
            journeys,
        }
    }

    /// Whether journeys are traced (transaction events are then consumed).
    pub(crate) fn traces_journeys(&self) -> bool {
        self.journeys.is_some()
    }

    /// The journeys of the sampled packets delivered so far, in delivery
    /// order, when journeys are traced.
    pub(crate) fn journeys(&self) -> Option<&[PacketJourney]> {
        self.journeys.as_ref().map(|j| j.log.packets.as_slice())
    }

    /// A packet entered the source NI queue; `txn` looks up its transaction
    /// tag and runs only for a sampled packet.
    pub(crate) fn inject(
        &mut self,
        packet: u64,
        src: u16,
        now: Cycle,
        txn: impl FnOnce() -> Option<(u64, u32, bool)>,
    ) {
        let sampled = self.journeys.as_ref().is_some_and(|j| j.samples(packet));
        if sampled || self.spatial.is_some() {
            let trail = sampled.then(|| match self.spare_trails.pop() {
                Some(mut trail) => {
                    trail.reset(src, now, txn());
                    trail
                }
                None => Box::new(Trail::new(src, now, txn())),
            });
            self.clocks
                .insert(packet, PacketClock { injected_at: now, trail, ..Default::default() });
        }
    }

    /// A flit was pushed into directed channel `ci` at `now`; `cost` is the
    /// cycles until it becomes consumable downstream. Only the head flit
    /// carries the packet's clock.
    pub(crate) fn link_flit(
        &mut self,
        ci: usize,
        flit: &Flit,
        cost: u64,
        bypass: bool,
        now: Cycle,
    ) {
        if let Some(s) = self.spatial.as_mut() {
            s.link_flits[ci] += 1;
        }
        if !flit.is_head() {
            return;
        }
        if let Some(clock) = self.clocks.get_mut(flit.packet_id) {
            let cause = if bypass { JourneyCause::Bypass } else { JourneyCause::Link };
            clock.charge(now, cost, cause, || link_loc(&self.mesh, ci));
        }
    }

    /// A head flit was enqueued into a VC of `router` with `cost` pipeline
    /// cycles before it can be granted.
    pub(crate) fn pipeline(&mut self, packet: u64, router: u16, cost: u64, now: Cycle) {
        if let Some(clock) = self.clocks.get_mut(packet) {
            clock.charge(now, cost, JourneyCause::Pipeline, || JourneyLoc::Router(router));
        }
    }

    /// A flit held in directed channel `ci` was NACKed and will be
    /// retransmitted after `cost` stall cycles.
    pub(crate) fn hop_retx(&mut self, ci: usize, flit: &Flit, cost: u64, now: Cycle) {
        if let Some(s) = self.spatial.as_mut() {
            s.link_retx[ci] += 1;
        }
        if !flit.is_head() {
            return;
        }
        if let Some(clock) = self.clocks.get_mut(flit.packet_id) {
            clock.charge(now, cost, JourneyCause::HopRetx, || link_loc(&self.mesh, ci));
        }
    }

    /// The packet restarts from source NI `src` (end-to-end retransmission).
    /// The restart rule, stated once: everything since injection,
    /// `[injected_at, now)`, is wasted — the current generation's charges
    /// are forgotten (a charge made at grant time may reach past `now`; the
    /// trail clips it) and the whole window is charged to retransmission, so
    /// nothing inside it is counted twice.
    pub(crate) fn e2e_retx(&mut self, packet: u64, src: u16, now: Cycle) {
        if let Some(clock) = self.clocks.get_mut(packet) {
            clock.charged = [0; 6];
            clock.add(JourneyCause::WastedGen, now.saturating_sub(clock.injected_at));
            clock.head_eject = None;
            if let Some(trail) = clock.trail.as_mut() {
                trail.restart(now, src);
            }
        }
    }

    /// The head flit of the current generation ejected at router `dest`.
    pub(crate) fn head_eject(&mut self, packet: u64, dest: u16, now: Cycle) {
        if let Some(clock) = self.clocks.get_mut(packet) {
            clock.head_eject = Some(now);
            if let Some(trail) = clock.trail.as_mut() {
                trail.head_ejected(now, dest);
            }
        }
    }

    /// The tail flit ejected and the packet completed with the measured
    /// end-to-end `latency` (which spans `[injected_at, now + 1)`). Records
    /// the breakdown when attribution is on; returns the finished journey of
    /// a sampled packet, already in the log.
    pub(crate) fn complete(
        &mut self,
        tail: &Flit,
        now: Cycle,
        latency: u64,
    ) -> Option<&PacketJourney> {
        let packet = tail.packet_id;
        let mut clock = self.clocks.remove(packet)?;
        let head_eject = clock.head_eject.unwrap_or(now);
        clock.add(JourneyCause::Serialization, now.saturating_sub(head_eject));
        clock.add(JourneyCause::Ejection, 1);
        let measured: u64 = clock.charged.iter().sum();
        debug_assert!(
            measured <= latency,
            "packet {packet}: charged {measured} cycles > measured latency {latency}"
        );
        // The residual is time spent waiting; every wait cause is queuing.
        clock.add(JourneyCause::VcSaWait, latency.saturating_sub(measured));
        let components = LatencyComponents::from_array(clock.charged);
        debug_assert_eq!(components.total(), latency, "packet {packet}: components must sum");
        if let Some(s) = self.spatial.as_mut() {
            s.breakdown.record(tail.src, tail.dest, latency, &components);
        }
        let mut trail = clock.trail?;
        let journey = trail.finish(tail, clock.injected_at, head_eject, now, latency);
        self.spare_trails.push(trail);
        debug_assert_eq!(journey.components(), components, "packet {packet}: trail vs counters");
        let log = &mut self.journeys.as_mut().expect("a trail implies the journey recorder").log;
        log.packets.push(journey);
        log.packets.last()
    }

    /// The packet was dropped; forget its clock (a sampled one is counted,
    /// so the log states what it lost).
    pub(crate) fn drop(&mut self, packet: u64) {
        let Some(trail) = self.clocks.remove(packet).and_then(|c| c.trail) else { return };
        self.spare_trails.push(trail);
        if let Some(j) = self.journeys.as_mut() {
            j.log.dropped_packets += 1;
        }
    }

    /// Zero-duration marker on a sampled packet's trail: `cause` (a reroute
    /// off the XY path, an in-place ECC correction) happened at `router`.
    pub(crate) fn mark(&mut self, packet: u64, router: u16, now: Cycle, cause: JourneyCause) {
        if self.journeys.is_none() {
            return; // no trails: skip the lookup
        }
        if let Some(trail) = self.clocks.get_mut(packet).and_then(|c| c.trail.as_mut()) {
            trail.mark(now, router, cause);
        }
    }

    /// One transaction-lifecycle event drained from the workload.
    pub(crate) fn txn_event(&mut self, ev: &TxnEvent) {
        if let Some(j) = self.journeys.as_mut() {
            j.on_txn_event(ev);
        }
    }

    /// One gating-phase cycle; `gated` yields the routers that are gated,
    /// waking or hard-failed in it.
    pub(crate) fn gate_cycle(&mut self, gated: impl Iterator<Item = usize>) {
        if let Some(s) = self.spatial.as_mut() {
            s.gate_cycles += 1;
            gated.for_each(|r| s.router_gated[r] += 1);
        }
    }

    /// One epoch's temperature sample per router, in router order.
    pub(crate) fn temp_epoch(&mut self, temps_c: impl Iterator<Item = f64>) {
        if let Some(s) = self.spatial.as_mut() {
            s.temp_epochs += 1;
            s.temp_sum.iter_mut().zip(temps_c).for_each(|(sum, t)| *sum += t);
        }
    }

    /// Closes both sinks at `now`: the accumulators fold into renderable
    /// artifacts (`now` is the simulated span utilization normalizes
    /// against), and sampled packets still in flight are counted as
    /// unfinished.
    pub(crate) fn finish(self, now: Cycle) -> (Option<AttributionArtifacts>, Option<JourneyLog>) {
        let unfinished = self.clocks.live().filter(|c| c.trail.is_some()).count() as u64;
        let mesh = self.mesh;
        (self.spatial.map(|s| s.fold(&mesh, now)), self.journeys.map(|j| j.finish(now, unfinished)))
    }
}

impl Spatial {
    fn fold(self, mesh: &Mesh, cycles: u64) -> AttributionArtifacts {
        let nodes = mesh.nodes();
        let denom = cycles.max(1) as f64;

        // 2·width·height − width − height physical links on a mesh: fold the
        // two directed channels of each XPlus/YPlus edge together.
        let mut links = Vec::new();
        for r in 0..nodes {
            for dir in [Port::XPlus, Port::YPlus] {
                if let Some(v) = mesh.neighbor(r, dir) {
                    let (fwd, rev) = (slot(r, dir), slot(v, dir.opposite()));
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
    use noc_telemetry::journey_sampled;
    use std::collections::HashMap;

    /// Both sinks on an 8x8 mesh, so every completion below also runs the
    /// trail-vs-counters self-check.
    fn engine() -> LatencyEngine {
        let journeys = JourneyRecorder::new("test".to_owned(), 9, 1);
        LatencyEngine::new(Mesh::new(8, 8), true, Some(journeys))
    }

    fn flits(packet: u64) -> [Flit; 4] {
        make_packet(packet, 0, 0, 5, 0)
    }

    /// The journey log of `engine`, which traces every packet.
    fn journeys(engine: LatencyEngine) -> Vec<PacketJourney> {
        engine.finish(1000).1.expect("journeys on").packets
    }

    #[test]
    fn components_sum_exactly_without_retx() {
        let mut att = engine();
        let (head, tail) = (flits(7)[0], flits(7)[3]);
        att.inject(7, 0, 100, || None);
        att.pipeline(7, 0, 4, 100);
        att.link_flit(0, &head, 1, false, 110);
        att.link_flit(4, &head, 1, false, 120);
        att.head_eject(7, 5, 130);
        att.complete(&tail, 133, 34); // injected_at 100, done at 133+1
        let (art, log) = att.finish(1000);
        let bd = art.expect("attribution on").breakdown;
        assert_eq!((bd.packets, bd.latency_sum), (1, 34));
        let journey = &log.expect("journeys on").packets[0];
        let c = journey.components();
        assert_eq!(bd.totals, c);
        assert_eq!(c.total(), 34);
        assert_eq!(c.traversal, 6);
        assert_eq!(c.serialization, 3);
        assert_eq!(c.ejection, 1);
        assert_eq!(c.queuing, 34 - 6 - 3 - 1);
        let hops = journey.spans.iter().filter(|s| s.cause == JourneyCause::Link).count();
        assert_eq!(hops, 2);
    }

    #[test]
    fn e2e_retx_charges_whole_wasted_generation() {
        let mut att = engine();
        let (head, tail) = (flits(9)[0], flits(9)[3]);
        att.inject(9, 0, 50, || None);
        att.pipeline(9, 0, 4, 50);
        att.link_flit(0, &head, 1, false, 60);
        att.head_eject(9, 5, 70);
        att.e2e_retx(9, 0, 80); // generation [50, 80) wasted
        att.pipeline(9, 0, 4, 85);
        att.head_eject(9, 5, 95);
        att.complete(&tail, 99, 50); // [50, 100)
        let c = journeys(att)[0].components();
        assert_eq!(c.retransmission, 30);
        assert_eq!(c.traversal, 4, "wasted generation's charges were reset");
        assert_eq!(c.total(), 50);
    }

    #[test]
    fn finish_folds_directed_channels_into_physical_links() {
        let mut att = engine();
        // One flit each way across the 0 <-> 1 link.
        att.link_flit(Port::XPlus.index(), &flits(1)[0], 1, false, 0);
        att.link_flit(DIRS + Port::XMinus.index(), &flits(2)[0], 1, false, 0);
        let art = att.finish(1000).0.expect("attribution on");
        assert_eq!(art.links.len(), 112, "8x8 mesh has 112 physical links");
        let l01 = art.links.iter().find(|l| l.a == 0 && l.b == 1).unwrap();
        assert_eq!(l01.flits, 2);
        assert_eq!(art.grids.len(), 4);
        assert_eq!(art.grids[0].cells.len(), 64);
    }

    /// One hook of a generated sequence.
    #[derive(Debug, Clone, Copy)]
    enum Hook {
        Inject,
        Pipeline { router: u16 },
        Link { ci: usize, cost: u64, bypass: bool },
        Nack { ci: usize, head: bool },
        Mark { router: u16, ecc: bool },
        Restart,
        HeadEject,
        Complete { latency: u64 },
        Drop,
    }

    /// How a generated packet ends and what a straight count of its hooks
    /// says the engine must report.
    #[derive(Debug, Default)]
    struct Expected {
        injected_at: Cycle,
        /// `Some(delivered_at)`; `None` for a dropped or unfinished packet.
        delivered_at: Option<Cycle>,
        dropped: bool,
        /// Powered and bypass link crossings of the delivered generation.
        hops: u16,
        bypasses: u16,
    }

    /// Cyclic entropy tape: `next(n)` draws a value below `n`.
    struct Tape<'a>(&'a [u16], usize);

    impl Tape<'_> {
        fn next(&mut self, n: u64) -> u64 {
            self.1 += 1;
            u64::from(self.0[self.1 % self.0.len()]) % n
        }
    }

    const PIPELINE: u64 = 4;
    const NACK_STALL: u64 = 3;

    /// Generates `packets` legal per-packet hook sequences — every charge
    /// starts at or after the end of the previous one, restarts land on the
    /// start of, inside, or after the last charged window — merged in time
    /// order, so packets interleave.
    fn script(tape: &mut Tape, packets: u64) -> (Vec<(Cycle, u64, Hook)>, Vec<Expected>) {
        let mut hooks: Vec<(Cycle, u64, Hook)> = Vec::new();
        let mut expected = Vec::new();
        let mut inject = 0;
        for id in 0..packets {
            inject += tape.next(12);
            let mut t = inject;
            let mut want = Expected { injected_at: t, ..Expected::default() };
            hooks.push((t, id, Hook::Inject));
            let generations = 1 + tape.next(4); // 0-3 end-to-end restarts
            for g in 0..generations {
                (want.hops, want.bypasses) = (0, 0);
                t += tape.next(8); // NI-queue wait
                hooks.push((t, id, Hook::Pipeline { router: 0 }));
                let mut window = (t, t + PIPELINE);
                for _ in 0..tape.next(5) {
                    t = window.1 + tape.next(6); // VC/SA wait
                    let (ci, bypass) = (tape.next(16 * DIRS as u64) as usize, tape.next(3) == 0);
                    let cost = 1 + tape.next(3) + u64::from(bypass);
                    hooks.push((t, id, Hook::Link { ci, cost, bypass }));
                    window = (t, t + cost);
                    *(if bypass { &mut want.bypasses } else { &mut want.hops }) += 1;
                    if tape.next(4) == 0 {
                        hooks.push((t, id, Hook::Nack { ci, head: false }));
                    }
                    if tape.next(4) == 0 {
                        let (router, ecc) = (tape.next(16) as u16, tape.next(2) == 0);
                        hooks.push((t, id, Hook::Mark { router, ecc }));
                    }
                    if tape.next(4) == 0 {
                        t = window.1 + tape.next(3); // channel wait, then the NACK
                        hooks.push((t, id, Hook::Nack { ci, head: true }));
                        window = (t, t + NACK_STALL);
                    }
                    if !bypass {
                        t = window.1 + tape.next(3);
                        hooks.push((t, id, Hook::Pipeline { router: tape.next(16) as u16 }));
                        window = (t, t + PIPELINE);
                    }
                }
                if g + 1 < generations {
                    t = match tape.next(3) {
                        0 => window.0, // the charge made this very cycle is forgotten
                        1 => window.0 + 1 + tape.next(window.1 - window.0 - 1), // clipped
                        _ => {
                            // The head made it; the CRC failed at the tail.
                            t = window.1 + tape.next(6);
                            hooks.push((t, id, Hook::HeadEject));
                            t + tape.next(5)
                        }
                    };
                    hooks.push((t, id, Hook::Restart));
                }
            }
            t = t.max(inject + PIPELINE) + 8; // past every window of this packet
            match tape.next(8) {
                0 => {
                    hooks.push((t, id, Hook::Drop));
                    want.dropped = true;
                }
                1 => {} // still in flight when the run ends
                _ => {
                    hooks.push((t, id, Hook::HeadEject));
                    t += tape.next(5); // tail drain
                    hooks.push((t, id, Hook::Complete { latency: t + 1 - want.injected_at }));
                    want.delivered_at = Some(t + 1);
                }
            }
            expected.push(want);
        }
        hooks.sort_by_key(|h| h.0); // stable: a packet's own hooks keep their order
        (hooks, expected)
    }

    /// Feeds one generated script to an engine with journeys at 1 in `every`
    /// and attribution on or off, then checks every packet against the
    /// straight count.
    fn replay_and_check(tape: &[u16], packets: u64, every: u64, attribution: bool) {
        let (hooks, expected) = script(&mut Tape(tape, 0), packets);
        let journeys = JourneyRecorder::new("prop".to_owned(), 9, every);
        let mut engine = LatencyEngine::new(Mesh::new(4, 4), attribution, Some(journeys));
        let flits = |id| make_packet(id, id * 4, 0, 15, 0);
        for &(now, id, hook) in &hooks {
            let (head, body, tail) = (flits(id)[0], flits(id)[1], flits(id)[3]);
            match hook {
                Hook::Inject => engine.inject(id, 0, now, || None),
                Hook::Pipeline { router } => engine.pipeline(id, router, PIPELINE, now),
                Hook::Link { ci, cost, bypass } => engine.link_flit(ci, &head, cost, bypass, now),
                Hook::Nack { ci, head: true } => engine.hop_retx(ci, &head, NACK_STALL, now),
                Hook::Nack { ci, head: false } => engine.hop_retx(ci, &body, NACK_STALL, now),
                Hook::Mark { router, ecc } => {
                    let cause =
                        if ecc { JourneyCause::EccCorrected } else { JourneyCause::Reroute };
                    engine.mark(id, router, now, cause);
                }
                Hook::Restart => engine.e2e_retx(id, 0, now),
                Hook::HeadEject => engine.head_eject(id, 15, now),
                Hook::Complete { latency } => {
                    let sampled = engine.complete(&tail, now, latency).is_some();
                    assert_eq!(sampled, journey_sampled(9, id, every), "packet {id}");
                }
                Hook::Drop => engine.drop(id),
            }
        }
        let (art, log) = engine.finish(hooks.last().map_or(0, |h| h.0) + 1);
        let log = log.expect("journeys on");
        assert_eq!(art.is_some(), attribution);
        let (mut delivered, mut latency_sum, mut dropped, mut unfinished) = (0, 0, 0, 0);
        for (id, want) in (0u64..).zip(&expected) {
            let sampled = journey_sampled(9, id, every);
            let journey = log.packets.iter().find(|j| j.packet == id);
            let Some(delivered_at) = want.delivered_at else {
                assert!(journey.is_none(), "packet {id} was not delivered");
                dropped += u64::from(sampled && want.dropped);
                unfinished += u64::from(sampled && !want.dropped);
                continue;
            };
            delivered += 1;
            let latency = delivered_at - want.injected_at;
            latency_sum += latency;
            assert_eq!(journey.is_some(), sampled, "packet {id}");
            if let Some(j) = journey {
                let mut cursor = want.injected_at;
                for s in j.spans.iter().filter(|s| !s.cause.is_marker()) {
                    assert_eq!(s.start, cursor, "packet {id}: spans must tile: {:?}", j.spans);
                    assert!(s.end > s.start, "packet {id}: empty span: {:?}", j.spans);
                    cursor = s.end;
                }
                assert_eq!(cursor, delivered_at, "packet {id}: spans reach delivery");
                assert_eq!((j.latency, j.components().total()), (latency, latency), "packet {id}");
                let crossings = |c| j.spans.iter().filter(|s| s.cause == c).count();
                assert_eq!(crossings(JourneyCause::Link), want.hops as usize, "packet {id}");
                assert_eq!(crossings(JourneyCause::Bypass), want.bypasses as usize);
            }
        }
        if let Some(art) = art {
            let bd = &art.breakdown;
            assert_eq!((bd.packets, bd.latency_sum), (delivered, latency_sum));
            assert_eq!(bd.totals.total(), latency_sum, "components sum exactly");
            if every == 1 {
                // Every packet has a journey: the breakdown is theirs, summed.
                let mut from_log = LatencyBreakdown::default();
                for j in &log.packets {
                    from_log.record(j.src, j.dest, j.latency, &j.components());
                }
                assert_eq!(format!("{bd:?}"), format!("{from_log:?}"));
            }
        }
        assert_eq!(log.dropped_packets, dropped);
        assert_eq!(log.unfinished_packets, unfinished);
    }

    /// What a hook reads back from the in-flight table, kept by the model.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ModelClock {
        injected_at: Cycle,
        charged: [u64; 6],
        head_eject: Option<Cycle>,
        /// The end of the last charge: the next one starts no earlier.
        busy_until: Cycle,
    }

    /// Drives the engine and a `HashMap` model of the in-flight table with
    /// one random sequence: ids injected in increasing order; pipeline
    /// charges, head ejections, completions and drops on any id, live or
    /// not; the first tracked packet held back to complete last. After every
    /// step each id looks up the same clock in both and the window spans
    /// exactly the oldest live packet to the newest; at the end the
    /// unfinished count and the rendered breakdown agree.
    fn window_matches_hashmap(tape: &[u16], every: u64, attribution: bool) {
        let mut tape = Tape(tape, 0);
        let journeys = JourneyRecorder::new("window".to_owned(), 9, every);
        let mut engine = LatencyEngine::new(Mesh::new(4, 4), attribution, Some(journeys));
        let tracked = |id| attribution || journey_sampled(9, id, every);
        let tail = |id| make_packet(id, id * 4, 3, 12, 0)[3];
        let mut model: HashMap<u64, ModelClock> = HashMap::new();
        let mut expected = LatencyBreakdown::default();
        let (mut next_id, mut now, mut straggler) = (0u64, 0, None);
        let mut complete = |engine: &mut LatencyEngine, id, m: ModelClock, now| {
            let latency = now + 1 - m.injected_at;
            let mut charged = m.charged;
            charged[2] += now - m.head_eject.unwrap_or(now);
            charged[5] += 1;
            charged[0] += latency - charged.iter().sum::<u64>();
            if attribution {
                expected.record(3, 12, latency, &LatencyComponents::from_array(charged));
            }
            engine.complete(&tail(id), now, latency);
        };
        for _ in 0..tape.0.len() / 2 {
            now += 1 + tape.next(3);
            let id = tape.next(next_id + 2); // live, finished or not yet injected
            let live = model.get(&id).copied().filter(|m| m.busy_until <= now);
            match (tape.next(6), live) {
                (0 | 1, _) => {
                    engine.inject(next_id, 3, now, || None);
                    if tracked(next_id) {
                        let (injected_at, busy_until) = (now, now);
                        let m = ModelClock {
                            injected_at,
                            charged: [0; 6],
                            head_eject: None,
                            busy_until,
                        };
                        model.insert(next_id, m);
                        straggler = straggler.or(Some(next_id));
                    }
                    next_id += 1;
                }
                (2, Some(m)) if m.head_eject.is_none() => {
                    let cost = 1 + tape.next(4);
                    engine.pipeline(id, 1, cost, now);
                    let m = model.get_mut(&id).expect("live");
                    m.charged[1] += cost;
                    m.busy_until = now + cost;
                }
                (3, Some(m)) if m.head_eject.is_none() => {
                    engine.head_eject(id, 12, now);
                    model.get_mut(&id).expect("live").head_eject = Some(now);
                }
                (4, Some(m)) if Some(id) != straggler => {
                    model.remove(&id);
                    complete(&mut engine, id, m, now);
                }
                (5, Some(_)) if Some(id) != straggler => {
                    model.remove(&id);
                    engine.drop(id);
                }
                // A hook on a packet the table does not hold changes nothing.
                (2, None) if !model.contains_key(&id) => engine.pipeline(id, 1, 1, now),
                (3, None) if !model.contains_key(&id) => engine.head_eject(id, 12, now),
                (4, None) if !model.contains_key(&id) => {
                    assert!(engine.complete(&tail(id), now, 1).is_none());
                }
                (5, None) if !model.contains_key(&id) => engine.drop(id),
                _ => {}
            }
            for id in 0..next_id + 2 {
                let found =
                    engine.clocks.get_mut(id).map(|c| (c.injected_at, c.charged, c.head_eject));
                let want = model.get(&id).map(|m| (m.injected_at, m.charged, m.head_eject));
                assert_eq!(found, want, "packet {id} at cycle {now}");
            }
            let span = match (model.keys().min(), model.keys().max()) {
                (Some(oldest), Some(newest)) => newest - oldest + 1,
                _ => 0,
            };
            assert_eq!(engine.clocks.slots.len() as u64, span, "window at cycle {now}");
        }
        if let Some(m) = straggler.and_then(|id| model.remove(&id)) {
            now = now.max(m.busy_until) + 1;
            complete(&mut engine, straggler.expect("held back"), m, now);
        }
        let unfinished = model.keys().filter(|&&id| journey_sampled(9, id, every)).count() as u64;
        let (art, log) = engine.finish(now + 1);
        assert_eq!(log.expect("journeys on").unfinished_packets, unfinished);
        let found = art.map(|a| format!("{:?}", a.breakdown));
        assert_eq!(found, attribution.then(|| format!("{expected:?}")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// The id-indexed window against the hash-map table it replaced.
        #[test]
        fn clock_window_matches_a_hashmap_model(
            tape in proptest::collection::vec(0u16..u16::MAX, 64..512),
            every in 1u64..4,
            attribution in 0u8..2,
        ) {
            window_matches_hashmap(&tape, every, attribution == 1);
        }

        /// Exact-sum attribution over random legal hook sequences: a
        /// sampled packet's spans tile its lifetime, sum to its latency and
        /// cross as many links as the sequence did; the breakdown's totals
        /// sum to the delivered latencies, and with every packet sampled
        /// equal the journeys' components summed — with attribution on
        /// (every packet has a clock) and off (only sampled ones do).
        #[test]
        fn random_hook_sequences_account_exactly(
            tape in proptest::collection::vec(0u16..u16::MAX, 64..512),
            packets in 1u64..12,
            every in 1u64..4,
            attribution in 0u8..2,
        ) {
            replay_and_check(&tape, packets, every, attribution == 1);
        }
    }
}
