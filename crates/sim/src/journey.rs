//! The simulator side of `noc-journey`: a [`JourneyTracker`] that turns
//! the attribution hook stream into exact span timelines for sampled
//! packets (and leg timelines for sampled transactions).
//!
//! The tracker keeps a moving *cursor* per sampled packet. Every charged
//! hook (pipeline fill, link traversal, bypass latch, hop-NACK stall)
//! first gap-fills `[cursor, now)` with a wait span at the packet's
//! current location — NI-queue wait at the source interface, VC/SA wait
//! inside a router, channel wait on a link — then appends the charged
//! span `[now, now + cost)` and advances the cursor. Because every charge
//! the attribution engine makes has a disjoint, forward-moving time
//! window, the spans tile the packet's lifetime exactly and per-cause
//! sums reproduce the PR-3 components bit-for-bit; when the attribution
//! engine is installed too, the probe `debug_assert!`s that equality
//! against it at every completion.
//!
//! End-to-end retransmission reclassifies the failed generation's spans
//! as `wasted_gen` (keeping their locations, so a Perfetto view still
//! shows *where* the wasted generation travelled) — mirroring how the
//! attribution engine folds the whole window into `retransmission`.
//!
//! Whether a packet or transaction is sampled is a pure seeded hash of
//! its id ([`noc_telemetry::journey_sampled`]), so the sampled set — and
//! every downstream artifact — is identical across serial, parallel, and
//! resumed executions of one seed.

use crate::flit::{Cycle, Flit};
use crate::topology::{Mesh, Port, DIRS};
use noc_telemetry::{
    journey_sampled, HopSpan, JourneyCause, JourneyLoc, JourneyLog, PacketJourney, TxnJourney,
    TxnLeg, TxnLegKind, TxnOutcome,
};
use noc_traffic::{TxnEvent, TxnEventKind};
use std::collections::HashMap;

/// Salt mixed into the seed for transaction sampling so the sampled txn
/// set is independent of the sampled packet set.
const TXN_SAMPLE_SALT: u64 = 0xA076_1D64_78BD_642F;

/// The directed channel `ci` of `mesh` (`u16::MAX` downstream on the rim).
fn link_loc(mesh: &Mesh, ci: usize) -> JourneyLoc {
    let (from, dir) = (ci / DIRS, Port::from_index(ci % DIRS));
    let to = mesh.neighbor(from, dir).map_or(u16::MAX, |d| d as u16);
    JourneyLoc::Link { from: from as u16, to }
}

/// The cause of a wait span gap-filled while the packet's head sits at `at`.
fn wait_cause(at: JourneyLoc) -> JourneyCause {
    match at {
        JourneyLoc::SourceNi(_) => JourneyCause::NiQueue,
        JourneyLoc::Router(_) => JourneyCause::VcSaWait,
        JourneyLoc::Link { .. } => JourneyCause::ChannelWait,
    }
}

/// In-flight journey of one sampled packet.
#[derive(Debug)]
struct Track {
    src: u16,
    dest: u16,
    injected_at: Cycle,
    txn: Option<(u64, u32, bool)>,
    /// One past the end of the last span (time accounted so far).
    cursor: Cycle,
    /// Where the packet's head currently resides.
    at: JourneyLoc,
    /// Index of the first span of the current e2e generation.
    gen_first_span: usize,
    head_eject: Option<Cycle>,
    spans: Vec<HopSpan>,
}

impl Track {
    /// Gap-fills `[cursor, now)` with a wait span at the current
    /// residence, then advances the cursor to `now`.
    fn wait_until(&mut self, now: Cycle) {
        debug_assert!(self.cursor <= now, "journey cursor moved backwards");
        if now > self.cursor {
            self.spans.push(HopSpan {
                start: self.cursor,
                end: now,
                loc: self.at,
                cause: wait_cause(self.at),
            });
            self.cursor = now;
        }
    }

    /// Appends the charged span `[now, now + cost)` and advances.
    fn charge(&mut self, now: Cycle, cost: u64, loc: JourneyLoc, cause: JourneyCause) {
        self.wait_until(now);
        self.spans.push(HopSpan { start: now, end: now + cost, loc, cause });
        self.cursor = now + cost;
    }
}

/// In-flight journey of one sampled transaction.
#[derive(Debug)]
struct TxnTrack {
    client: u16,
    server: u16,
    issued_at: Cycle,
    attempts: u32,
    /// `(start, kind, attempt)` of the currently open leg.
    open: Option<(Cycle, TxnLegKind, u32)>,
    legs: Vec<TxnLeg>,
}

impl TxnTrack {
    fn close_leg(&mut self, now: Cycle) {
        if let Some((start, kind, attempt)) = self.open.take() {
            self.legs.push(TxnLeg { start, end: now.max(start), kind, attempt });
        }
    }

    fn open_leg(&mut self, now: Cycle, kind: TxnLegKind, attempt: u32) {
        self.open = Some((now, kind, attempt));
    }

    fn into_journey(mut self, txn: u64, now: Cycle, outcome: TxnOutcome) -> TxnJourney {
        self.close_leg(now);
        TxnJourney {
            txn,
            client: self.client,
            server: self.server,
            issued_at: self.issued_at,
            resolved_at: now,
            attempts: self.attempts,
            outcome,
            legs: self.legs,
        }
    }
}

/// Deterministic sampled per-packet / per-transaction journey recorder.
#[derive(Debug)]
pub(crate) struct JourneyTracker {
    seed: u64,
    every: u64,
    mesh: Mesh,
    tracks: HashMap<u64, Track>,
    txns: HashMap<u64, TxnTrack>,
    log: JourneyLog,
}

impl JourneyTracker {
    pub(crate) fn new(label: String, seed: u64, every: u64, mesh: Mesh) -> Self {
        JourneyTracker {
            seed,
            every,
            mesh,
            tracks: HashMap::new(),
            txns: HashMap::new(),
            log: JourneyLog { label, seed, every, ..JourneyLog::default() },
        }
    }

    pub(crate) fn on_inject(
        &mut self,
        packet: u64,
        src: u16,
        dest: u16,
        now: Cycle,
        txn: Option<(u64, u32, bool)>,
    ) {
        if !journey_sampled(self.seed, packet, self.every) {
            return;
        }
        self.tracks.insert(
            packet,
            Track {
                src,
                dest,
                injected_at: now,
                txn,
                cursor: now,
                at: JourneyLoc::SourceNi(src),
                gen_first_span: 0,
                head_eject: None,
                spans: Vec::new(),
            },
        );
    }

    /// A flit crossed channel `ci` (granted at `now`, arriving at
    /// `now + cost`). Only the head flit carries the packet's clock, as in
    /// the attribution engine.
    pub(crate) fn on_link_flit(
        &mut self,
        ci: usize,
        flit: &Flit,
        cost: u64,
        bypass: bool,
        now: Cycle,
    ) {
        if !flit.is_head() {
            return;
        }
        if let Some(t) = self.tracks.get_mut(&flit.packet_id) {
            let loc = link_loc(&self.mesh, ci);
            let cause = if bypass { JourneyCause::Bypass } else { JourneyCause::Link };
            t.charge(now, cost, loc, cause);
            t.at = loc;
        }
    }

    /// A head flit was delivered into an input VC at `router` and charged
    /// the pipeline fill.
    pub(crate) fn on_pipeline(&mut self, packet: u64, router: u16, cost: u64, now: Cycle) {
        if let Some(t) = self.tracks.get_mut(&packet) {
            t.charge(now, cost, JourneyLoc::Router(router), JourneyCause::Pipeline);
            t.at = JourneyLoc::Router(router);
        }
    }

    /// A hop-NACK made the stored copy on channel `ci` re-traverse.
    pub(crate) fn on_hop_retx(&mut self, ci: usize, flit: &Flit, cost: u64, now: Cycle) {
        if !flit.is_head() {
            return;
        }
        if let Some(t) = self.tracks.get_mut(&flit.packet_id) {
            let loc = link_loc(&self.mesh, ci);
            t.charge(now, cost, loc, JourneyCause::HopRetx);
            t.at = loc;
        }
    }

    /// The whole packet restarts from the source: the current generation's
    /// spans become `wasted_gen` (locations preserved) and the clock
    /// rebases at `now`, exactly like the attribution engine's
    /// `on_e2e_retx`.
    pub(crate) fn on_e2e_retx(&mut self, packet: u64, now: Cycle) {
        if let Some(t) = self.tracks.get_mut(&packet) {
            // Charges land at grant time but extend into the future; the
            // wasted window is exactly `[gen_start, now)`, so clip spans
            // that overshoot the failure cycle (the attribution engine
            // resets its per-generation accumulators the same way).
            let first = t.gen_first_span;
            let mut i = first;
            while i < t.spans.len() {
                let s = &mut t.spans[i];
                if s.cause.is_marker() {
                    i += 1;
                } else if s.start >= now {
                    t.spans.remove(i);
                } else {
                    s.cause = JourneyCause::WastedGen;
                    s.end = s.end.min(now);
                    i += 1;
                }
            }
            t.cursor = t.cursor.min(now);
            if now > t.cursor {
                t.spans.push(HopSpan {
                    start: t.cursor,
                    end: now,
                    loc: t.at,
                    cause: JourneyCause::WastedGen,
                });
            }
            t.cursor = now;
            t.gen_first_span = t.spans.len();
            t.at = JourneyLoc::SourceNi(t.src);
            t.head_eject = None;
        }
    }

    /// The head flit was consumed at the destination; tail flits drain
    /// behind it (serialization).
    pub(crate) fn on_head_eject(&mut self, packet: u64, now: Cycle) {
        if let Some(t) = self.tracks.get_mut(&packet) {
            t.wait_until(now);
            let dest = t.dest;
            t.at = JourneyLoc::Router(dest);
            t.head_eject = Some(now);
        }
    }

    /// The tail flit was consumed at `now`; the packet finishes at
    /// `now + 1` with measured `latency`. Returns the finished journey for
    /// optional forwarding (the blackbox's slowest-journeys ring).
    pub(crate) fn on_complete(
        &mut self,
        packet: u64,
        now: Cycle,
        latency: u64,
    ) -> Option<&PacketJourney> {
        let mut t = self.tracks.remove(&packet)?;
        let he = t.head_eject.unwrap_or(now);
        t.wait_until(he);
        if now > he {
            t.spans.push(HopSpan {
                start: he,
                end: now,
                loc: JourneyLoc::Router(t.dest),
                cause: JourneyCause::Serialization,
            });
        }
        t.spans.push(HopSpan {
            start: now,
            end: now + 1,
            loc: JourneyLoc::Router(t.dest),
            cause: JourneyCause::Ejection,
        });
        t.cursor = now + 1;
        let journey = PacketJourney {
            packet,
            src: t.src,
            dest: t.dest,
            injected_at: t.injected_at,
            delivered_at: now + 1,
            latency,
            txn: t.txn,
            spans: t.spans,
        };
        debug_assert_eq!(journey.components().total(), latency, "packet {packet} span tiling");
        self.log.packets.push(journey);
        self.log.packets.last()
    }

    /// The packet was dropped before delivery; its journey is discarded
    /// (counted, so the log states what it lost).
    pub(crate) fn on_drop(&mut self, packet: u64) {
        if self.tracks.remove(&packet).is_some() {
            self.log.dropped_packets += 1;
        }
    }

    /// Zero-duration marker: the packet left its XY route at `router`.
    pub(crate) fn on_reroute(&mut self, packet: u64, router: u16, now: Cycle) {
        if let Some(t) = self.tracks.get_mut(&packet) {
            t.spans.push(HopSpan {
                start: now,
                end: now,
                loc: JourneyLoc::Router(router),
                cause: JourneyCause::Reroute,
            });
        }
    }

    /// Zero-duration marker: ECC corrected corruption at `router`.
    pub(crate) fn on_ecc_corrected(&mut self, packet: u64, router: u16, now: Cycle) {
        if let Some(t) = self.tracks.get_mut(&packet) {
            t.spans.push(HopSpan {
                start: now,
                end: now,
                loc: JourneyLoc::Router(router),
                cause: JourneyCause::EccCorrected,
            });
        }
    }

    /// Feeds one drained transaction-lifecycle event into the sampled
    /// transaction tracks.
    pub(crate) fn on_txn_event(&mut self, ev: &TxnEvent) {
        if !journey_sampled(self.seed ^ TXN_SAMPLE_SALT, ev.txn, self.every) {
            return;
        }
        match ev.kind {
            TxnEventKind::Issued => {
                let mut track = TxnTrack {
                    client: ev.node as u16,
                    server: ev.peer as u16,
                    issued_at: ev.cycle,
                    attempts: 1,
                    open: None,
                    legs: Vec::new(),
                };
                track.open_leg(ev.cycle, TxnLegKind::InFlight, 1);
                self.txns.insert(ev.txn, track);
            }
            TxnEventKind::TimedOut => {
                if let Some(t) = self.txns.get_mut(&ev.txn) {
                    t.close_leg(ev.cycle);
                    t.open_leg(ev.cycle, TxnLegKind::Backoff, ev.attempt);
                }
            }
            TxnEventKind::Retried => {
                if let Some(t) = self.txns.get_mut(&ev.txn) {
                    t.close_leg(ev.cycle);
                    t.attempts = ev.attempt.max(t.attempts);
                    t.open_leg(ev.cycle, TxnLegKind::InFlight, ev.attempt);
                }
            }
            TxnEventKind::Completed | TxnEventKind::Failed => {
                if let Some(t) = self.txns.remove(&ev.txn) {
                    let outcome = if ev.kind == TxnEventKind::Completed {
                        TxnOutcome::Completed
                    } else {
                        TxnOutcome::Failed
                    };
                    self.log.txns.push(t.into_journey(ev.txn, ev.cycle, outcome));
                }
            }
            TxnEventKind::Shed => {
                let track = self.txns.remove(&ev.txn).unwrap_or(TxnTrack {
                    client: ev.node as u16,
                    server: ev.peer as u16,
                    issued_at: ev.cycle,
                    attempts: 0,
                    open: None,
                    legs: Vec::new(),
                });
                self.log.txns.push(track.into_journey(ev.txn, ev.cycle, TxnOutcome::Shed));
            }
        }
    }

    /// Closes the log at `now`: in-flight packets are counted as
    /// unfinished, open transactions close as unresolved, and transactions
    /// are ordered by id so the artifact is deterministic.
    pub(crate) fn finish(mut self, now: Cycle) -> JourneyLog {
        self.log.unfinished_packets = self.tracks.len() as u64;
        let mut open: Vec<(u64, TxnTrack)> = self.txns.drain().collect();
        open.sort_by_key(|(id, _)| *id);
        for (id, t) in open {
            self.log.txns.push(t.into_journey(id, now, TxnOutcome::Unresolved));
        }
        self.log.txns.sort_by_key(|t| t.txn);
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;

    fn tracker(every: u64) -> JourneyTracker {
        JourneyTracker::new("test".to_owned(), 9, every, Mesh::new(2, 2))
    }

    fn head(packet: u64) -> Flit {
        make_packet(packet, packet * 4, 0, 1, 0)[0]
    }

    #[test]
    fn spans_tile_the_packet_lifetime() {
        let mut j = tracker(1);
        let h = head(7);
        j.on_inject(7, 0, 1, 10, None);
        j.on_pipeline(7, 0, 4, 13); // 3 cycles NI-queue wait first
        j.on_link_flit(0, &h, 2, false, 20); // 3 cycles VC/SA wait
        j.on_pipeline(7, 1, 4, 22);
        j.on_head_eject(7, 30);
        let latency = 34 + 1 - 10;
        let journey = j.on_complete(7, 34, latency).expect("sampled").clone();
        let c = journey.components();
        assert_eq!(c.total(), latency);
        assert_eq!(c.traversal, 4 + 2 + 4);
        assert_eq!(c.serialization, 4);
        assert_eq!(c.ejection, 1);
        assert_eq!(c.queuing, latency - (10 + 4 + 1));
        // Non-marker spans tile [injected_at, delivered_at) exactly.
        let mut cursor = journey.injected_at;
        for s in journey.spans.iter().filter(|s| !s.cause.is_marker()) {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, journey.delivered_at);
    }

    #[test]
    fn e2e_retx_reclassifies_the_failed_generation() {
        let mut j = tracker(1);
        let h = head(3);
        j.on_inject(3, 0, 1, 0, None);
        j.on_pipeline(3, 0, 4, 0);
        j.on_link_flit(0, &h, 2, false, 6);
        j.on_head_eject(3, 12);
        j.on_e2e_retx(3, 15); // CRC failed at the destination
        j.on_pipeline(3, 0, 4, 20);
        j.on_link_flit(0, &h, 2, false, 26);
        j.on_head_eject(3, 30);
        let latency = 33 + 1;
        let journey = j.on_complete(3, 33, latency).expect("sampled").clone();
        let c = journey.components();
        assert_eq!(c.retransmission, 15, "whole failed generation is wasted");
        assert_eq!(c.traversal, 6, "only the delivering generation counts");
        assert_eq!(c.total(), latency);
        let wasted: u64 = journey
            .spans
            .iter()
            .filter(|s| s.cause == JourneyCause::WastedGen)
            .map(HopSpan::duration)
            .sum();
        assert_eq!(wasted, 15);
    }

    #[test]
    fn e2e_retx_clips_charges_that_overshoot_the_failure() {
        let mut j = tracker(1);
        let h = head(4);
        j.on_inject(4, 0, 1, 0, None);
        j.on_pipeline(4, 0, 4, 0);
        j.on_link_flit(0, &h, 5, false, 10); // charge [10, 15)...
        j.on_e2e_retx(4, 12); // ...but the NACK lands mid-traversal
        j.on_pipeline(4, 0, 4, 20);
        j.on_head_eject(4, 30);
        let latency = 30 + 1;
        let journey = j.on_complete(4, 30, latency).expect("sampled").clone();
        let c = journey.components();
        assert_eq!(c.retransmission, 12, "wasted window is [0, 12) exactly");
        assert_eq!(c.traversal, 4, "only the delivering generation counts");
        assert_eq!(c.total(), latency);
    }

    #[test]
    fn sampling_gates_tracking_and_drops_count() {
        let mut j = tracker(0); // every = 0: nothing sampled
        j.on_inject(1, 0, 1, 0, None);
        assert!(j.on_complete(1, 5, 6).is_none());
        let mut j = tracker(1);
        j.on_inject(2, 0, 1, 0, None);
        j.on_drop(2);
        let log = j.finish(10);
        assert_eq!(log.dropped_packets, 1);
        assert!(log.packets.is_empty());
    }

    #[test]
    fn txn_events_become_leg_timelines() {
        let mut j = tracker(1);
        let ev = |cycle, attempt, kind| TxnEvent { cycle, node: 2, txn: 5, peer: 9, attempt, kind };
        j.on_txn_event(&ev(10, 1, TxnEventKind::Issued));
        j.on_txn_event(&ev(50, 1, TxnEventKind::TimedOut));
        j.on_txn_event(&ev(60, 2, TxnEventKind::Retried));
        j.on_txn_event(&ev(90, 2, TxnEventKind::Completed));
        let log = j.finish(100);
        assert_eq!(log.txns.len(), 1);
        let t = &log.txns[0];
        assert_eq!(t.completion_cycles(), 80);
        assert_eq!(t.attempts, 2);
        assert_eq!(t.outcome, TxnOutcome::Completed);
        assert_eq!(
            t.legs,
            vec![
                TxnLeg { start: 10, end: 50, kind: TxnLegKind::InFlight, attempt: 1 },
                // The backoff leg carries the attempt that timed out.
                TxnLeg { start: 50, end: 60, kind: TxnLegKind::Backoff, attempt: 1 },
                TxnLeg { start: 60, end: 90, kind: TxnLegKind::InFlight, attempt: 2 },
            ]
        );
    }

    #[test]
    fn unresolved_txns_close_at_finish() {
        let mut j = tracker(1);
        j.on_txn_event(&TxnEvent {
            cycle: 10,
            node: 0,
            txn: 1,
            peer: 3,
            attempt: 1,
            kind: TxnEventKind::Issued,
        });
        let log = j.finish(40);
        assert_eq!(log.txns[0].outcome, TxnOutcome::Unresolved);
        assert_eq!(log.txns[0].resolved_at, 40);
    }
}
