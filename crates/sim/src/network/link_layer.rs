//! The link layer: a flit crossing a link — the one event every mechanism
//! of the paper acts on (MFAC stages, the BST skip-scan and continuation,
//! adaptive per-hop ECC with ACK/NACK). Each mechanic is written once, on
//! the [`Fabric`]:
//!
//! * [`Fabric::next_hop`] is the one route decision: a head computes its
//!   output at a router, every flit behind it reads what the router
//!   recorded (the bound VC's route or the continuation record);
//! * [`Fabric::forward`] puts a flit *onto* a channel (the only push);
//! * [`Fabric::traverse`] takes one *off* at the far end — fault sampling
//!   and per-hop decode with the `LinkErrors`, the NACK ladder, hop
//!   accounting (the only removal besides a purge). DESIGN.md §7 tabulates
//!   what it does per [`Receiver`].
//!
//! Its callers are the router layer's phase 2a (the BST skip-scan into
//! powered routers) and the bypass of gated ones.
//!
//! Owner mutated: [`Links`](crate::channel::Links), through `push_delayed`,
//! `remove_at` and `delay_at`; `forward` also keeps the sending
//! [`Router`](crate::router::Router)'s continuation records
//! (`note_continuation`). A delivered flit is handed to the receiving
//! router by [`Fabric::accept`] or to the NI by `Endpoints::eject` (both
//! `ni_layer`). A head past its hop-retry budget is handed back to the
//! caller as [`Hop::Escalated`], and the caller salvages its packet.

use super::{Cx, Fabric};
use crate::flit::Flit;
use crate::topology::{slot, Port};
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

/// How a traversal ended.
#[derive(Debug)]
pub(super) enum Hop {
    /// Handed over: off the channel, flips folded into its counters, one
    /// hop older.
    Taken(Flit),
    /// NACKed: the stored copy re-traverses after `RETX_LATENCY`.
    Nacked,
    /// Refused with the hop-retry budget spent: this head's packet goes to
    /// end-to-end recovery, which the caller runs at once.
    Escalated(Flit),
}

/// Number of physical bits on the wire for a flit sent under `scheme`.
fn traversal_bits(scheme: EccScheme, e2e_crc: bool) -> usize {
    if scheme.is_per_hop() {
        scheme.codeword_bits()
    } else if e2e_crc {
        EccScheme::Crc.codeword_bits()
    } else {
        128
    }
}

impl Fabric {
    /// The output of router `r` for `flit`, which came in through `in_port`
    /// — the one route decision. A packet's head decides each hop once: the
    /// [`HealthRouter`](crate::health::HealthRouter)'s fault-aware route
    /// (`None` while its destination is unreachable) under fault-aware
    /// routing, plain XY otherwise, in which case traffic blocked by a dead
    /// link waits until the stall watchdog aborts the run. Every flit behind
    /// it reads what the router recorded — the route of the VC the head bound
    /// or, if it passed without one, its continuation record — so a table
    /// rebuilt between head and tail cannot split a packet over two paths. At
    /// the destination there is nothing to decide: every flit ejects.
    pub(super) fn next_hop(&self, cx: &Cx, r: usize, in_port: Port, flit: &Flit) -> Option<Port> {
        if flit.is_head() {
            let dest = flit.dest as usize;
            if cx.cfg.fault_aware_routing {
                cx.health.route(r, dest, in_port)
            } else {
                Some(self.mesh.xy_route(r, dest))
            }
        } else if flit.dest as usize == r {
            Some(Port::Local)
        } else {
            self.routers[r].packet_route(in_port.index(), flit.packet_id)
        }
    }

    /// [`Self::next_hop`] once the flit's landing is chosen, as a
    /// `route.compute` leaf span when a head computes it: a body landing in
    /// its packet's VC finds the route in that row, with no table to search.
    pub(super) fn landing_hop(
        &self,
        cx: &mut Cx,
        r: usize,
        in_port: Port,
        flit: &Flit,
        landing: Landing,
    ) -> Option<Port> {
        let span = if flit.is_head() { cx.probe.leaf_enter("route.compute") } else { None };
        let route = match landing {
            Landing::Vc(vc) if !flit.is_head() => {
                Some(self.routers[r].vc(in_port.index(), vc).route())
            }
            _ => self.next_hop(cx, r, in_port, flit),
        };
        cx.probe.leaf_exit(span, 0);
        route
    }

    /// Whether router `r` can push a flit through direction `out` now: the
    /// hop is in service and its channel has room.
    pub(super) fn can_send(&self, cx: &Cx, r: usize, out: Port) -> bool {
        cx.health.usable(r, out) && self.links.has_space(slot(r, out))
    }

    /// The one latch-to-channel push: `flit` leaves router `r` through
    /// `out`, which the caller checked is usable and has space.
    pub(super) fn forward(&mut self, cx: &mut Cx, r: usize, out: Port, flit: &Flit, from: Sender) {
        let ci = slot(r, out);
        let router = &mut self.routers[r];
        router.step.out_flits[out.index()] += 1;
        router.counters.link_flits += 1;
        // Preserved divergence (DESIGN.md §7, `stage-op-on-wire`): the
        // crossbar path charges a channel-stage write only when the design
        // has channel storage; the two latch paths charge it always.
        if from != Sender::Crossbar || cx.cfg.channel_capacity > 0 {
            router.counters.channel_stage_ops += 1;
        }
        if let Sender::Latch(in_port) | Sender::Bypass(in_port) = from {
            router.note_continuation(in_port, flit, out);
        }
        let bypass = matches!(from, Sender::Bypass(_));
        let extra = u64::from(bypass);
        let cost = self.links.get(ci).expect("route stays on the mesh").latency() + extra;
        cx.probe.link_flit(ci, flit, cost, bypass, cx.now);
        self.links.push_delayed(ci, *flit, cx.now, extra);
    }

    /// The one link traversal: the flit at `idx` of channel `ci` physically
    /// crosses the link now. Samples this link's faults, decodes at `rx`
    /// (unless it is a gated transit), and either hands the flit over —
    /// removed from the channel, flips folded into its counters, one hop
    /// older — or refuses it: the decoder NACKed it (the stored copy
    /// re-traverses after `RETX_LATENCY`) or, past the hop-retry budget,
    /// escalates it to the caller, which salvages the packet.
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
    pub(super) fn traverse(&mut self, cx: &mut Cx, ci: usize, idx: usize, rx: Receiver) -> Hop {
        let (u, v) = self.links.ends(ci);
        // Only the fields the clean path needs: a flit is copied off the
        // channel once, by `remove_at` (or to decode it, on a hit).
        let ch = self.links.get(ci).expect("channel exists");
        let (scheme, carried, relaxed) =
            (ch.get(idx).hop_scheme, ch.get(idx).hop_flips, ch.relaxed);
        // Relaxed timing: two half-speed samples must both fail.
        let re = cx.errors.re[u];
        let re = if relaxed { (re * re).max(1e-300) } else { re };
        let bits = traversal_bits(scheme, cx.cfg.e2e_crc);
        let span = cx.probe.leaf_enter("fault.inject");
        let k_link = cx.errors.injector.sample_flip_count(bits, re);
        cx.probe.leaf_exit(span, 1);
        self.routers[u].step.error_hist[(k_link as usize).min(3)] += 1;
        if k_link > 0 {
            cx.stats.faulty_traversals += 1;
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
            match self.decode(cx, ci, idx, rx, k.min(bits as u32)) {
                Ok(survived) => to_e2e = survived,
                Err(refused) => return refused,
            }
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
        cx.probe.event(Event::HopTraversed {
            cycle: cx.now,
            router: v as u32,
            packet: flit.packet_id,
            flit: flit.id,
        });
        Hop::Taken(flit)
    }

    /// Decodes the per-hop codeword of the flit at `idx` of channel `ci` at
    /// receiver `rx` with `k` of its bits flipped. `Ok(n)`: it passes, `n`
    /// flips surviving toward the end-to-end check (undetected, or
    /// "corrected" into the wrong word); `Err`: uncorrectable, and refused.
    fn decode(
        &mut self,
        cx: &mut Cx,
        ci: usize,
        idx: usize,
        rx: Receiver,
        k: u32,
    ) -> Result<u16, Hop> {
        let head = *self.links.get(ci).expect("channel exists").get(idx);
        let (scheme, payload) = (head.hop_scheme, head.payload());
        let bits = scheme.codeword_bits();
        let span = cx.probe.leaf_enter("ecc.encode");
        let mut cw = cx.errors.suite.encode(scheme, payload);
        cx.probe.leaf_exit(span, 1);
        for pos in cx.errors.injector.choose_positions(bits, k) {
            cw.flip_bit(pos);
        }
        let span = cx.probe.leaf_enter("ecc.decode");
        let (data, status) = cx.errors.suite.decode(scheme, &cw);
        cx.probe.leaf_exit(span, 1);
        match status {
            DecodeStatus::Corrected(_) if data == payload => {
                cx.stats.corrected_bits += k as u64;
                cx.probe.ecc_corrected(head.packet_id, self.links.ends(ci).1, k, cx.now);
                Ok(0)
            }
            DecodeStatus::Clean | DecodeStatus::Corrected(_) => Ok(k as u16),
            DecodeStatus::Detected => {
                let span = cx.probe.leaf_enter("retx.ladder");
                let refused = self.nack(cx, ci, idx, rx, head);
                cx.probe.leaf_exit(span, 1);
                Err(refused)
            }
        }
    }

    /// The NACK ladder for `head`, which `rx` could not correct: within the
    /// hop-retry budget the stored copy re-traverses the link; past it the
    /// head is escalated to end-to-end recovery (or an accounted drop).
    fn nack(&mut self, cx: &mut Cx, ci: usize, idx: usize, rx: Receiver, head: Flit) -> Hop {
        if u32::from(head.retx) >= cx.cfg.max_retx {
            return Hop::Escalated(head);
        }
        let (u, v) = self.links.ends(ci);
        self.links.delay_at(ci, idx, cx.now, RETX_LATENCY);
        cx.probe.hop_retx(ci, &head, v, RETX_LATENCY, cx.now);
        cx.stats.hop_retx_events += 1;
        cx.stats.retransmitted_flits += 1;
        let up = &mut self.routers[u];
        up.step.retransmissions += 1;
        up.counters.link_flits += 1;
        // The upstream side re-encodes the stored copy and re-reads it from
        // an MFAC stage or its own buffer. Preserved divergence (DESIGN.md
        // §7, `nack-reread-at-gated-ni`): a NACK from a gated NI charges no
        // re-read.
        up.counters.count_ecc_op(head.hop_scheme);
        if rx == Receiver::Router {
            if cx.cfg.mfac {
                up.counters.channel_stage_ops += 1;
            } else {
                up.counters.buffer_reads += 1;
            }
        }
        Hop::Nacked
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Rig;
    use super::*;
    use crate::config::SimConfig;
    use crate::flit::make_packet;
    use crate::router::GateState;
    use crate::topology::{DIRS, PORTS};

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
        let mut rig = Rig::new(cfg);
        let now = 5;
        rig.stats.packets_injected = 1;
        rig.ends.outstanding[src as usize] = 1;
        if rx != Receiver::Router {
            rig.fabric.routers[v].gate = GateState::Gated;
        }
        let ci = slot(u, Port::XPlus);
        if behind_another_packet {
            rig.fabric.links.push_delayed(ci, make_packet(9, 36, src, 5, 0)[0], 0, 0);
        }
        let idx = usize::from(behind_another_packet);
        let mut flit = make_packet(1, 4, src, 5, 0)[index];
        (flit.hop_scheme, flit.hop_flips, flit.e2e_flips) = (scheme, carried, e2e_before);
        (flit.retx, flit.generation) = (retx, generation);
        rig.fabric.links.push_delayed(ci, flit, 0, 0);
        rig.errors.injector.set_rate_override(Some(f64::from(hits) / 160.0));

        let before = rig.stats.clone();
        let sampled_before = rig.errors.injector.injected_bits();
        let (fabric, _, mut cx) = rig.parts(now);
        let hop = fabric.traverse(&mut cx, ci, idx, rx);
        let flips_in = cx.errors.injector.injected_bits() - sampled_before + u64::from(carried);
        let escalated = matches!(hop, Hop::Escalated(_));
        let out = match hop {
            Hop::Taken(got) => Some(got),
            Hop::Nacked => None,
            Hop::Escalated(head) => {
                assert_eq!((head.id, head.retx), (flit.id, retx), "the refused flit escalates");
                None
            }
        };

        let after = &rig.stats;
        let corrected = after.corrected_bits - before.corrected_bits;
        let nacks = after.hop_retx_events - before.hop_retx_events;
        let resent = after.e2e_retx_packets - before.e2e_retx_packets;
        let dropped = after.packets_dropped - before.packets_dropped;
        let channel = rig.fabric.links.get(ci).expect("link");
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
                if u32::from(retx) >= max_retx {
                    // Out of hop budget: handed back for end-to-end recovery
                    // (`ni_layer`'s tests) with the stored copy untouched.
                    assert!(escalated);
                    assert_eq!((nacks, resent, dropped), (0, 0, 0));
                    let kept = still_there.expect("an escalated flit waits for its salvage");
                    assert_eq!((kept.hop_flips, kept.e2e_flips), (carried, e2e_before));
                    assert_eq!(kept.retx, retx);
                } else {
                    // NACK: the clean stored copy waits to re-traverse.
                    assert!(!escalated);
                    assert_eq!((nacks, resent, dropped), (1, 0, 0));
                    let kept = still_there.expect("a NACKed flit stays on the channel");
                    assert_eq!((kept.hop_flips, kept.e2e_flips), (0, e2e_before));
                    assert_eq!(kept.retx, retx + 1);
                    let ready_at = |t| channel.scan_deliverable(t, |f| f.id == flit.id);
                    let back = now + RETX_LATENCY;
                    assert_eq!((ready_at(back - 1), ready_at(back)), (None, Some(idx)));
                }
            }
        }
        assert_eq!(rig.fabric.links.index_drift(), None);
        assert_eq!(rig.fabric.nis.index_drift(), None);
    }

    /// One step of the channel-model property: `(op, router, direction,
    /// arg, rate)`; ops 0-3 forward, 4-6 traverse a flit of a non-empty
    /// channel, 7 purges a packet.
    type ChannelOp = (u8, usize, usize, usize, u8);

    /// MFAC/BST bookkeeping, layer by layer: on a hand-built 3x3 fabric,
    /// random forwards (every sender), traversals (every receiver, random
    /// flip rates and hop budgets, so heads are NACKed and escalated) and
    /// purges keep every channel equal to a model of its flit ids, in
    /// order and within capacity, keep the link, NI and router indexes
    /// equal to a recount, and keep each upstream router's `link_flits`
    /// equal to its forwards plus its NACKs.
    fn check_channel_model(capacity: usize, max_retx: u32, seed: u64, ops: &[ChannelOp]) {
        let cfg = SimConfig {
            width: 3,
            height: 3,
            channel_capacity: capacity,
            max_retx,
            seed,
            ..Default::default()
        };
        let mut rig = Rig::new(cfg);
        let slots = 9 * DIRS;
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); slots];
        let mut sent = [0u64; 9];
        for (step, &(op, r, d, arg, rate)) in ops.iter().enumerate() {
            let (r, out) = (r % 9, Port::DIRECTIONS[d]);
            let busy: Vec<usize> = (0..slots).filter(|&s| !model[s].is_empty()).collect();
            let ci = if op < 4 || busy.is_empty() { slot(r, out) } else { busy[arg % busy.len()] };
            rig.errors.injector.set_rate_override(Some(f64::from(rate) / 160.0));
            let (fabric, _, mut cx) = rig.parts(step as u64);
            match op {
                0..4 if fabric.links.has_space(ci) => {
                    let in_port = Port::ALL[arg / 3 % PORTS];
                    let from = [Sender::Crossbar, Sender::Latch(in_port), Sender::Bypass(in_port)];
                    let packet = step as u64;
                    let mut flit = make_packet(packet, packet * 4, r as u16, 0, 0)[arg % 4];
                    flit.hop_scheme = EccScheme::ALL[arg % EccScheme::ALL.len()];
                    fabric.forward(&mut cx, r, out, &flit, from[arg % 3]);
                    model[ci].push(flit.id);
                    sent[r] += 1;
                }
                4..7 if !model[ci].is_empty() => {
                    let (idx, r) = (arg % model[ci].len(), fabric.links.ends(ci).0);
                    let rx = [Receiver::Router, Receiver::GatedNi, Receiver::GatedTransit][arg % 3];
                    match fabric.traverse(&mut cx, ci, idx, rx) {
                        Hop::Taken(flit) => assert_eq!(flit.id, model[ci].remove(idx)),
                        Hop::Nacked => sent[r] += 1,
                        Hop::Escalated(head) => assert_eq!(head.id, model[ci][idx]),
                    }
                }
                7 => {
                    let ids: Vec<u64> = model.iter().flatten().copied().collect();
                    let Some(&id) = ids.get(arg % ids.len().max(1)) else { continue };
                    fabric.purge_packet(id / 4);
                    model.iter_mut().for_each(|ch| ch.retain(|f| f / 4 != id / 4));
                }
                _ => continue,
            }
            for (ci, want) in model.iter().enumerate() {
                let got: Vec<u64> = rig
                    .fabric
                    .links
                    .get(ci)
                    .into_iter()
                    .flat_map(|ch| ch.flits())
                    .map(|f| f.id)
                    .collect();
                assert_eq!(&got, want, "step {step}: channel slot {ci}");
                assert!(got.len() <= capacity.max(1), "step {step}: slot {ci} over capacity");
            }
            assert_eq!(rig.fabric.links.index_drift(), None, "step {step}");
            assert_eq!(rig.fabric.nis.index_drift(), None, "step {step}");
            let routers = &rig.fabric.routers;
            assert_eq!(routers.iter().find_map(|r| r.index_drift(step as u64)), None);
            let link_flits: Vec<u64> = routers.iter().map(|r| r.counters.link_flits).collect();
            assert_eq!(link_flits, sent, "step {step}: forwards plus NACKs per upstream router");
        }
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
            hop in (0usize..3, 1u32..4, 0u32..8, 0u64..1000),
            flit in (0usize..5, 0usize..4, 0u16..4, 0u16..3, 0u16..4, 0u16..4),
            behind_another_packet in 0u8..2,
        ) {
            check_flip_conservation(hop, flit, behind_another_packet == 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        #[test]
        fn channels_follow_a_model_of_their_flits(
            capacity in 0usize..9,
            max_retx in 1u32..4,
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u8..8, 0usize..9, 0usize..4, 0usize..60, 0u8..40), 1..80),
        ) {
            check_channel_model(capacity, max_retx, seed, &ops);
        }
    }
}
