//! The link layer: a flit crossing a link — the one event every mechanism
//! of the paper acts on (MFAC stages, the BST skip-scan and continuation,
//! adaptive per-hop ECC with ACK/NACK). Each mechanic is written once:
//!
//! * [`Network::next_hop`] is the one route decision: a head computes its
//!   output at a router, every flit behind it reads what the router
//!   recorded (the bound VC's route or the continuation record);
//! * [`Network::forward`] puts a flit *onto* a channel (the only push);
//! * [`Network::traverse`] takes one *off* at the far end — fault sampling,
//!   per-hop decode, the NACK ladder, hop accounting (the only removal
//!   besides a purge). DESIGN.md §7 tabulates what it does per
//!   [`Receiver`];
//! * [`Network::link_delivery`] is phase 2a: the BST skip-scan that picks,
//!   per non-empty channel into a powered router, which flit traverses.
//!
//! Owner mutated: [`Links`](crate::channel::Links), through `push_delayed`,
//! `remove_at` and `delay_at`; `forward` also keeps the sending
//! [`Router`](crate::router::Router)'s continuation records
//! (`note_continuation`). A delivered flit is handed to the receiving
//! [`Router`](crate::router::Router) by [`Network::accept`] or to the NI by
//! [`Network::eject`] (both `ni_layer`); an exhausted hop-retry budget goes
//! to [`Network::salvage_or_drop`] (`recovery`).

use super::Network;
use crate::flit::{Flit, NO_VC};
use crate::topology::{Port, DIRS};
use noc_ecc::{DecodeStatus, EccScheme};
use noc_telemetry::Event;

/// Cycles from a NACK to the re-transmitted copy being back on the link
/// (Table 1 setup).
const RETX_LATENCY: u64 = 4;

/// Who takes a flit off a link. Read off the simulator's state at the call
/// site — the receiving router's gate state and whether the flit's route
/// there is `Local` — never configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Receiver {
    /// An input port of a powered router: decodes the per-hop codeword.
    Router,
    /// The NI of a gated router, reached through its bypass: the router's
    /// ECC hardware is off, but the NI must recover the data to consume it,
    /// so it decodes too (and NACKs what it cannot correct).
    GatedNi,
    /// A gated router the flit passes straight through: nothing decodes, so
    /// flips ride the still-encoded codeword to the next decoder.
    GatedTransit,
}

/// What pushes a flit onto a link. The two latches carry flits that hold no
/// VC at the router, so they name the input port the flit came in through:
/// the key of its continuation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sender {
    /// A switch-allocation grant through the crossbar.
    Crossbar,
    /// The BST continuation latch of a powered router (no VC, no crossbar).
    Latch(Port),
    /// The bypass latch of a gated router: one more cycle than the link.
    Bypass(Port),
}

/// Where a flit taken off a link (or out of the NI) lands in a powered
/// router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Landing {
    /// This VC of the input port.
    Vc(usize),
    /// None: it rides the BST continuation latch straight to its output.
    Latch,
}

impl Network {
    /// Samples link bit flips, as a `fault.inject` leaf span when profiling.
    #[inline]
    fn sample_flips(&mut self, bits: usize, re: f64) -> u32 {
        let span = self.probe.leaf_enter("fault.inject");
        let k = self.injector.sample_flip_count(bits, re);
        self.probe.leaf_exit(span, 1);
        k
    }

    /// Number of physical bits on the wire for a flit sent under `scheme`.
    fn traversal_bits(&self, scheme: EccScheme) -> usize {
        if scheme.is_per_hop() {
            scheme.codeword_bits()
        } else if self.cfg.e2e_crc {
            EccScheme::Crc.codeword_bits()
        } else {
            128
        }
    }

    /// The routers at the `(upstream, downstream)` ends of channel `ci`.
    fn link_ends(&self, ci: usize) -> (usize, usize) {
        let (u, dir) = (ci / DIRS, Port::from_index(ci % DIRS));
        (u, self.health.neighbor(u, dir).expect("channel implies neighbor"))
    }

    /// The output of router `r` for `flit`, which came in through `in_port`
    /// — the one route decision. A packet's head decides each hop once
    /// ([`HealthRouter::route_via`](crate::health::HealthRouter), `None`
    /// while its destination is unreachable); every flit behind it reads
    /// what the router recorded — the route of the VC the head bound or, if
    /// it passed without one, its continuation record — so a table rebuilt
    /// between head and tail cannot split a packet over two paths. At the
    /// destination there is nothing to decide: every flit ejects.
    pub(super) fn next_hop(&self, r: usize, in_port: Port, flit: &Flit) -> Option<Port> {
        if flit.is_head() {
            self.health.route_via(r, flit.dest as usize, in_port)
        } else if flit.dest as usize == r {
            Some(Port::Local)
        } else {
            self.routers[r].packet_route(in_port.index(), flit.packet_id)
        }
    }

    /// [`Self::next_hop`] once the flit's landing is chosen: a body landing in
    /// its packet's VC finds the route in that row, with no table to search.
    pub(super) fn landing_hop(
        &self,
        r: usize,
        in_port: Port,
        flit: &Flit,
        landing: Landing,
    ) -> Option<Port> {
        match landing {
            Landing::Vc(vc) if !flit.is_head() => {
                Some(self.routers[r].vc(in_port.index(), vc).route())
            }
            _ => self.next_hop(r, in_port, flit),
        }
    }

    /// The one latch-to-channel push: `flit` leaves router `r` through
    /// `out`, which the caller checked is usable and has space.
    pub(super) fn forward(&mut self, r: usize, out: Port, flit: &Flit, from: Sender) {
        let now = self.now;
        let ci = self.channel_index(r, out);
        let router = &mut self.routers[r];
        router.step.out_flits[out.index()] += 1;
        router.counters.link_flits += 1;
        // Preserved divergence (DESIGN.md §7, `stage-op-on-wire`): the
        // crossbar path charges a channel-stage write only when the design
        // has channel storage; the two latch paths charge it always.
        if from != Sender::Crossbar || self.cfg.channel_capacity > 0 {
            router.counters.channel_stage_ops += 1;
        }
        if let Sender::Latch(in_port) | Sender::Bypass(in_port) = from {
            router.note_continuation(in_port, flit, out);
        }
        let bypass = matches!(from, Sender::Bypass(_));
        let extra = u64::from(bypass);
        let cost = self.links.get(ci).expect("route stays on the mesh").latency() + extra;
        self.probe.link_flit(ci, flit, cost, bypass, now);
        self.links.push_delayed(ci, *flit, now, extra);
    }

    /// The one link traversal: the flit at `idx` of channel `ci` physically
    /// crosses the link now. Samples this link's faults, decodes at `rx`
    /// (unless it is a gated transit), and either hands the flit over —
    /// removed from the channel, flips folded into its counters, one hop
    /// older — or returns `None`: the decoder NACKed it (the stored copy
    /// re-traverses after `RETX_LATENCY`) or its hop-retry budget ran out
    /// and the packet went to end-to-end recovery.
    ///
    /// Every flip sampled here or carried in as `hop_flips` ends in exactly
    /// one place: `stats.corrected_bits`, the flit's `e2e_flips`, its
    /// `hop_flips` (gated transit only), or nowhere, discarded with the
    /// corrupted copy a NACK or an escalation replaces.
    ///
    /// Inlined into its three callers: the clean path is short (decoding
    /// and the NACK ladder are out of line), and handing the 80-byte flit
    /// back through memory costs `saturated_8x8` over 1 % of its speed.
    #[inline(always)]
    pub(super) fn traverse(&mut self, ci: usize, idx: usize, rx: Receiver) -> Option<Flit> {
        let now = self.now;
        let (u, v) = self.link_ends(ci);
        // Only the fields the clean path needs: a flit is copied off the
        // channel once, by `remove_at` (or to decode it, on a hit).
        let ch = self.links.get(ci).expect("channel exists");
        let (scheme, carried, relaxed) =
            (ch.get(idx).hop_scheme, ch.get(idx).hop_flips, ch.relaxed);
        // Relaxed timing: two half-speed samples must both fail.
        let re = if relaxed { (self.re[u] * self.re[u]).max(1e-300) } else { self.re[u] };
        let bits = self.traversal_bits(scheme);
        let k_link = self.sample_flips(bits, re);
        self.routers[u].step.error_hist[(k_link as usize).min(3)] += 1;
        if k_link > 0 {
            self.stats.faulty_traversals += 1;
        }
        // Corruption accumulated while bypassing gated routers is still in
        // the codeword and meets this link's flips at the decoder.
        let k = k_link + u32::from(carried);
        let (mut to_e2e, mut in_codeword) = (0u16, 0u16);
        if !scheme.is_per_hop() {
            to_e2e = k as u16; // unprotected: straight to the e2e check
        } else if rx == Receiver::GatedTransit {
            in_codeword = carried.saturating_add(k_link as u16);
        } else if k > 0 {
            to_e2e = self.decode(ci, idx, rx, k.min(bits as u32), bits)?;
        }
        // Receiver-side decode energy. Preserved divergence (DESIGN.md §7,
        // `decode-op-when-clean`): a powered router pays for every per-hop
        // flit it takes, a gated NI only for one that arrived corrupted.
        let decode_charged = match rx {
            Receiver::Router => scheme.is_per_hop(),
            Receiver::GatedNi => scheme.is_per_hop() && k > 0,
            Receiver::GatedTransit => false,
        };
        if decode_charged {
            self.routers[v].counters.count_ecc_op(scheme);
        }
        let mut flit = self.links.remove_at(ci, idx);
        flit.e2e_flips = flit.e2e_flips.saturating_add(to_e2e);
        flit.hop_flips = in_codeword; // zero once decoded (re-encoded at the next output)
        self.probe.event(Event::HopTraversed {
            cycle: now,
            router: v as u32,
            packet: flit.packet_id,
            flit: flit.id,
        });
        Some(flit)
    }

    /// Decodes the flit at `idx` of channel `ci` at receiver `rx` with `k` of
    /// its `bits` codeword bits flipped. `Some(n)`: it passes, `n` flips
    /// surviving toward the end-to-end check (undetected, or "corrected"
    /// into the wrong word); `None`: uncorrectable, and NACKed.
    fn decode(&mut self, ci: usize, idx: usize, rx: Receiver, k: u32, bits: usize) -> Option<u16> {
        let now = self.now;
        let v = self.link_ends(ci).1;
        let head = *self.links.get(ci).expect("channel exists").get(idx);
        let (scheme, payload) = (head.hop_scheme, head.payload());
        let span = self.probe.leaf_enter("ecc.encode");
        let mut cw = self.suite.encode(scheme, payload);
        self.probe.leaf_exit(span, 1);
        for pos in self.injector.choose_positions(bits, k) {
            cw.flip_bit(pos);
        }
        let span = self.probe.leaf_enter("ecc.decode");
        let (data, status) = self.suite.decode(scheme, &cw);
        self.probe.leaf_exit(span, 1);
        match status {
            DecodeStatus::Corrected(_) if data == payload => {
                self.stats.corrected_bits += k as u64;
                self.probe.ecc_corrected(head.packet_id, v, k, now);
                Some(0)
            }
            DecodeStatus::Clean | DecodeStatus::Corrected(_) => Some(k as u16),
            DecodeStatus::Detected => {
                let span = self.probe.leaf_enter("retx.ladder");
                self.nack(ci, idx, rx, head);
                self.probe.leaf_exit(span, 1);
                None
            }
        }
    }

    /// The NACK ladder for `head`, which `rx` could not correct: within the
    /// hop-retry budget the stored copy re-traverses the link; past it the
    /// packet escalates to end-to-end recovery (or an accounted drop).
    fn nack(&mut self, ci: usize, idx: usize, rx: Receiver, head: Flit) {
        let now = self.now;
        if self.cfg.max_retx > 0 && u32::from(head.retx) >= self.cfg.max_retx {
            self.salvage_or_drop(head);
            return;
        }
        let (u, v) = self.link_ends(ci);
        self.links.delay_at(ci, idx, now, RETX_LATENCY);
        self.probe.hop_retx(ci, &head, v, RETX_LATENCY, now);
        self.stats.hop_retx_events += 1;
        self.stats.retransmitted_flits += 1;
        let up = &mut self.routers[u];
        up.step.retransmissions += 1;
        up.counters.link_flits += 1;
        // The upstream side re-encodes the stored copy and re-reads it from
        // an MFAC stage or its own buffer. Preserved divergence (DESIGN.md
        // §7, `nack-reread-at-gated-ni`): a NACK from a gated NI charges no
        // re-read.
        up.counters.count_ecc_op(head.hop_scheme);
        if rx == Receiver::Router {
            if self.cfg.mfac_retx {
                up.counters.channel_stage_ops += 1;
            } else {
                up.counters.buffer_reads += 1;
            }
        }
    }

    /// Whether a flit holding no VC at powered router `v` (arrived through
    /// `in_port`) could ride the BST continuation latch onward right now.
    fn latch_ok(&self, v: usize, in_port: Port, flit: &Flit) -> bool {
        match self.next_hop(v, in_port, flit) {
            Some(Port::Local) => true,
            Some(out) => {
                self.links.has_space(self.channel_index(v, out)) && self.health.usable(v, out)
            }
            None => false, // no live route: wait
        }
    }

    /// Where powered router `v` would put `flit` if it took it off the
    /// channel feeding its `in_port` this cycle — the skip-scan's predicate;
    /// `None` when it cannot take it.
    fn deliverable(&self, v: usize, in_port: Port, flit: &Flit) -> Option<Landing> {
        let down = &self.routers[v];
        let port = in_port.index();
        let latch = || self.latch_ok(v, in_port, flit).then_some(Landing::Latch);
        if !flit.is_head() {
            match down.bound_vc(port, flit.packet_id) {
                Some(_) => down.accept_target(port, flit).map(Landing::Vc),
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
    pub(super) fn link_delivery(&mut self) {
        let now = self.now;
        // Non-empty channels in ascending (router, direction) order. The
        // set is re-read for every step, so a channel filled mid-pass by a
        // BST-continuation push ahead of the cursor is visited this cycle
        // and one behind it is not — what a scan of every slot would do.
        let mut next_slot = 0;
        while let Some(ci) = self.links.next_occupied(next_slot) {
            next_slot = ci + 1;
            let (u, dir) = (ci / DIRS, Port::from_index(ci % DIRS));
            let v = self.health.neighbor(u, dir).expect("channel implies neighbor");
            if !self.health.usable(u, dir) {
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
            let Some(idx) = ch.scan_deliverable(now, |flit| {
                landing = self.deliverable(v, in_dir, flit);
                landing.is_some()
            }) else {
                continue;
            };
            let landing = landing.expect("the scan stops at the flit that has one");
            // A head needs a live route now: a temporarily unreachable
            // destination (intermittent outage) leaves it waiting on the
            // channel. Body and tail flits read their head's decision, which
            // an outage does not unmake.
            let head = ch.get(idx);
            let span = if head.is_head() { self.probe.leaf_enter("route.compute") } else { None };
            let route = self.landing_hop(v, in_dir, head, landing);
            self.probe.leaf_exit(span, 0);
            let Some(route) = route else { continue };
            let Some(mut flit) = self.traverse(ci, idx, Receiver::Router) else { continue };
            self.routers[v].step.in_flits[in_port] += 1;
            match landing {
                Landing::Vc(vc) => self.accept(v, in_port, vc, &flit, route),
                Landing::Latch => {
                    if flit.is_head() {
                        self.head_routed(v, &flit, route);
                    }
                    flit.vc = NO_VC;
                    if route == Port::Local {
                        self.eject(v, flit);
                    } else {
                        flit.hop_scheme = EccScheme::None;
                        self.forward(v, route, &flit, Sender::Latch(in_dir));
                        self.probe.span_count(1, 0); // latch-to-channel, no buffer
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::flit::make_packet;
    use crate::router::GateState;
    use noc_traffic::WorkloadSpec;

    /// What sits on the channel before the traversal: `(scheme index into
    /// EccScheme::ALL, flit index within its packet, hop_flips carried in,
    /// e2e_flips so far, hop retries spent, e2e generation)`.
    type FlitSeed = (usize, usize, u16, u16, u16, u16);

    /// One traversal in isolation: a flit of packet 1 (`3 → 5` on a 3x3
    /// mesh) waits on channel `3 → 4`, optionally behind another packet's
    /// flit, and crosses it at a forced error rate of `hits` expected flips.
    fn check_flip_conservation(
        (rx, max_retx, hits, seed): (usize, u32, u32, u64),
        (scheme, index, carried, e2e_before, retx, generation): FlitSeed,
        behind_another_packet: bool,
    ) {
        let rx = [Receiver::Router, Receiver::GatedNi, Receiver::GatedTransit][rx];
        let scheme = EccScheme::ALL[scheme];
        // Only a per-hop codeword can carry flips through a gated router.
        let carried = if scheme.is_per_hop() { carried } else { 0 };
        let (u, v, src) = (3, 4, 3u16);
        let cfg = SimConfig {
            width: 3,
            height: 3,
            channel_capacity: 4,
            max_retx,
            seed,
            ..Default::default()
        };
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        net.now = 5;
        net.stats.packets_injected = 1;
        net.outstanding[src as usize] = 1;
        if rx != Receiver::Router {
            net.routers[v].gate = GateState::Gated;
        }
        let ci = net.channel_index(u, Port::XPlus);
        if behind_another_packet {
            net.links.push_delayed(ci, make_packet(9, 36, src, 5, 0)[0], 0, 0);
        }
        let idx = usize::from(behind_another_packet);
        let mut flit = make_packet(1, 4, src, 5, 0)[index];
        (flit.hop_scheme, flit.hop_flips, flit.e2e_flips) = (scheme, carried, e2e_before);
        (flit.retx, flit.generation) = (retx, generation);
        net.links.push_delayed(ci, flit, 0, 0);
        net.set_error_rate_override(Some(f64::from(hits) / 160.0));

        let before = net.stats.clone();
        let sampled_before = net.injector.injected_bits();
        let out = net.traverse(ci, idx, rx);
        let flips_in = net.injector.injected_bits() - sampled_before + u64::from(carried);

        let after = &net.stats;
        let corrected = after.corrected_bits - before.corrected_bits;
        let nacks = after.hop_retx_events - before.hop_retx_events;
        let resent = after.e2e_retx_packets - before.e2e_retx_packets;
        let dropped = after.packets_dropped - before.packets_dropped;
        let channel = net.links.get(ci).expect("link");
        let still_there =
            (0..channel.occupancy()).map(|i| *channel.get(i)).find(|f| f.id == flit.id);
        let decodes = rx != Receiver::GatedTransit && scheme.is_per_hop();
        match out {
            Some(got) => {
                let to_e2e = u64::from(got.e2e_flips - e2e_before);
                assert_eq!(flips_in, corrected + to_e2e + u64::from(got.hop_flips), "{got:?}");
                assert!(
                    got.hop_flips == 0 || (rx == Receiver::GatedTransit && scheme.is_per_hop())
                );
                assert!(corrected == 0 || decodes);
                assert_eq!((got.id, got.retx), (flit.id, retx));
                assert_eq!(still_there, None, "a delivered flit left the channel");
                assert_eq!((nacks, resent, dropped), (0, 0, 0));
            }
            None => {
                // The corrupted copy is discarded with every flip on it.
                assert!(decodes && flips_in > 0, "only a decoder facing flips refuses a flit");
                assert_eq!(corrected, 0);
                if max_retx > 0 && u32::from(retx) >= max_retx {
                    // Out of hop budget: the packet left the mesh for its
                    // source NI (clean, next generation) or the drop ledger.
                    assert_eq!((nacks, resent + dropped), (0, 1));
                    assert_eq!(resent == 1, u32::from(generation) < max_retx);
                    assert_eq!(still_there, None);
                    let resend = &net.nis[src as usize].inject;
                    assert_eq!(resend.len(), 4 * resent as usize);
                    for f in resend {
                        assert_eq!((f.e2e_flips, f.hop_flips, f.retx), (0, 0, 0));
                        assert_eq!(f.generation, generation + 1);
                    }
                } else {
                    // NACK: the clean stored copy waits to re-traverse.
                    assert_eq!((nacks, resent, dropped), (1, 0, 0));
                    let kept = still_there.expect("a NACKed flit stays on the channel");
                    assert_eq!((kept.hop_flips, kept.e2e_flips), (0, e2e_before));
                    assert_eq!(kept.retx, retx + 1);
                    let ready_at = |t| channel.scan_deliverable(t, |f| f.id == flit.id);
                    let back = net.now + RETX_LATENCY;
                    assert_eq!((ready_at(back - 1), ready_at(back)), (None, Some(idx)));
                }
            }
        }
        assert_eq!(net.links.index_drift(), None);
        assert_eq!(net.nis.index_drift(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// Flip conservation: every flip sampled on the link or carried in
        /// through gated routers ends in exactly one of `corrected_bits`,
        /// the flit's `e2e_flips`, its `hop_flips` (gated transit only), or
        /// is discarded with the copy a NACK or an escalation replaces; the
        /// flit leaves the channel iff it is handed over (or its packet was
        /// escalated off the mesh); the link index stays exact. For every
        /// scheme, receiver, flip count, carried-in corruption and remaining
        /// hop and generation budget.
        #[test]
        fn traverse_conserves_flips(
            hop in (0usize..3, 0u32..4, 0u32..8, 0u64..1000),
            flit in (0usize..5, 0usize..4, 0u16..4, 0u16..3, 0u16..4, 0u16..4),
            behind_another_packet in 0u8..2,
        ) {
            check_flip_conservation(hop, flit, behind_another_packet == 1);
        }
    }
}
