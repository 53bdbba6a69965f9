//! The simulator side of `noc-journey`: the [`Trail`] a sampled packet's
//! clock carries (see [`crate::attribution`]) and the [`JourneyRecorder`] that
//! owns the sampling rule, the log and the transaction-leg timelines.
//!
//! A trail keeps a moving *cursor*. Every charge the latency engine makes
//! (pipeline fill, link traversal, bypass latch, hop-NACK stall) first
//! gap-fills `[cursor, now)` with a wait span at the packet's current
//! location — NI-queue wait at the source interface, VC/SA wait inside a
//! router, channel wait on a link — then appends the charged span
//! `[now, now + cost)` and advances the cursor. Because every charge has a
//! disjoint, forward-moving time window, the spans tile the packet's
//! lifetime exactly and per-cause sums reproduce the engine's counters
//! bit-for-bit (the engine `debug_assert!`s that at every sampled completion).
//!
//! A finished trail is reset and reused by the latency engine, so its span
//! buffer grows once per peak and not once per packet.
//!
//! An end-to-end restart reclassifies the failed generation's spans as
//! `wasted_gen` (keeping their locations, so the tail report's critical
//! path still shows *where* the wasted generation travelled).
//!
//! Whether a packet or transaction is sampled is a pure seeded hash of
//! its id ([`noc_telemetry::journey_sampled`]), so the sampled set — and
//! every downstream artifact — is identical across serial, parallel, and
//! resumed executions of one seed.

use crate::flit::{Cycle, Flit};
use noc_telemetry::{
    journey_sampled, HopSpan, JourneyCause, JourneyLoc, JourneyLog, PacketJourney, TxnJourney,
    TxnLeg, TxnLegKind, TxnOutcome,
};
use noc_traffic::{TxnEvent, TxnEventKind};
use std::collections::HashMap;

/// Salt mixed into the seed for transaction sampling so the sampled txn
/// set is independent of the sampled packet set.
const TXN_SAMPLE_SALT: u64 = 0xA076_1D64_78BD_642F;

/// The cause of a wait span gap-filled while the packet's head sits at `at`.
fn wait_cause(at: JourneyLoc) -> JourneyCause {
    match at {
        JourneyLoc::SourceNi(_) => JourneyCause::NiQueue,
        JourneyLoc::Router(_) => JourneyCause::VcSaWait,
        JourneyLoc::Link { .. } => JourneyCause::ChannelWait,
    }
}

/// The span timeline of one sampled in-flight packet.
#[derive(Debug)]
pub(crate) struct Trail {
    txn: Option<(u64, u32, bool)>,
    /// One past the end of the last span (time accounted so far).
    cursor: Cycle,
    /// Where the packet's head currently resides.
    at: JourneyLoc,
    /// Index of the first span of the current e2e generation.
    gen_first_span: usize,
    spans: Vec<HopSpan>,
}

impl Trail {
    /// A packet tagged `txn` entered the NI queue of router `src` at `now`.
    pub(crate) fn new(src: u16, now: Cycle, txn: Option<(u64, u32, bool)>) -> Self {
        Trail { txn, cursor: now, at: JourneyLoc::SourceNi(src), gen_first_span: 0, spans: vec![] }
    }

    /// Starts this finished trail over as [`Trail::new`] would, keeping the
    /// span buffer's capacity.
    pub(crate) fn reset(&mut self, src: u16, now: Cycle, txn: Option<(u64, u32, bool)>) {
        let mut spans = std::mem::take(&mut self.spans);
        spans.clear();
        *self = Trail { spans, ..Trail::new(src, now, txn) };
    }

    /// Gap-fills `[cursor, now)` with a wait span at the current
    /// residence, then advances the cursor to `now`.
    fn wait_until(&mut self, now: Cycle) {
        debug_assert!(self.cursor <= now, "journey cursor moved backwards");
        if now > self.cursor {
            let (start, loc) = (self.cursor, self.at);
            self.spans.push(HopSpan { start, end: now, loc, cause: wait_cause(loc) });
            self.cursor = now;
        }
    }

    /// Appends the charged span `[now, now + cost)` at `loc`, where the head
    /// now resides, and advances.
    pub(crate) fn charge(&mut self, now: Cycle, cost: u64, loc: JourneyLoc, cause: JourneyCause) {
        self.wait_until(now);
        self.spans.push(HopSpan { start: now, end: now + cost, loc, cause });
        self.cursor = now + cost;
        self.at = loc;
    }

    /// Zero-duration marker: `cause` happened at `router`.
    pub(crate) fn mark(&mut self, now: Cycle, router: u16, cause: JourneyCause) {
        self.spans.push(HopSpan { start: now, end: now, loc: JourneyLoc::Router(router), cause });
    }

    /// The packet restarts from source NI `src`: the current generation's
    /// spans become `wasted_gen` (locations preserved) and the clock rebases
    /// at `now`. Charges land at grant time but extend into the future; the
    /// wasted window ends at `now` exactly, so spans that overshoot the
    /// failure cycle are clipped and spans wholly past it removed.
    pub(crate) fn restart(&mut self, now: Cycle, src: u16) {
        let mut i = self.gen_first_span;
        while i < self.spans.len() {
            let s = &mut self.spans[i];
            if s.cause.is_marker() {
                i += 1;
            } else if s.start >= now {
                self.spans.remove(i);
            } else {
                s.cause = JourneyCause::WastedGen;
                s.end = s.end.min(now);
                i += 1;
            }
        }
        self.cursor = self.cursor.min(now);
        if now > self.cursor {
            let (start, loc) = (self.cursor, self.at);
            self.spans.push(HopSpan { start, end: now, loc, cause: JourneyCause::WastedGen });
        }
        self.cursor = now;
        self.gen_first_span = self.spans.len();
        self.at = JourneyLoc::SourceNi(src);
    }

    /// The head flit was consumed at router `dest`; tail flits drain behind
    /// it (serialization).
    pub(crate) fn head_ejected(&mut self, now: Cycle, dest: u16) {
        self.wait_until(now);
        self.at = JourneyLoc::Router(dest);
    }

    /// The tail flit `tail` was consumed at `now`, the head at `head_eject`:
    /// the packet finishes at `now + 1` with measured `latency`. The journey
    /// gets an exact-size copy of the spans; the trail can then be
    /// [`Trail::reset`] for another packet.
    pub(crate) fn finish(
        &mut self,
        tail: &Flit,
        injected_at: Cycle,
        head_eject: Cycle,
        now: Cycle,
        latency: u64,
    ) -> PacketJourney {
        let loc = JourneyLoc::Router(tail.dest);
        self.wait_until(head_eject);
        if now > head_eject {
            let cause = JourneyCause::Serialization;
            self.spans.push(HopSpan { start: head_eject, end: now, loc, cause });
        }
        self.spans.push(HopSpan { start: now, end: now + 1, loc, cause: JourneyCause::Ejection });
        PacketJourney {
            packet: tail.packet_id,
            src: tail.src,
            dest: tail.dest,
            injected_at,
            delivered_at: now + 1,
            latency,
            txn: self.txn,
            spans: self.spans.clone(),
        }
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

/// The journey log under construction: the seeded sampling rule, the
/// finished packet journeys (pushed by the latency engine) and the sampled
/// transactions' leg timelines.
#[derive(Debug)]
pub(crate) struct JourneyRecorder {
    txns: HashMap<u64, TxnTrack>,
    pub(crate) log: JourneyLog,
}

impl JourneyRecorder {
    pub(crate) fn new(label: String, seed: u64, every: u64) -> Self {
        let log = JourneyLog { label, seed, every, ..JourneyLog::default() };
        JourneyRecorder { txns: HashMap::new(), log }
    }

    /// Whether `packet` is in the seeded sample.
    pub(crate) fn samples(&self, packet: u64) -> bool {
        journey_sampled(self.log.seed, packet, self.log.every)
    }

    /// Feeds one drained transaction-lifecycle event into the sampled
    /// transaction tracks.
    pub(crate) fn on_txn_event(&mut self, ev: &TxnEvent) {
        if !journey_sampled(self.log.seed ^ TXN_SAMPLE_SALT, ev.txn, self.log.every) {
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

    /// Closes the log at `now` with `unfinished` sampled packets still in
    /// flight: open transactions close as unresolved, and transactions are
    /// ordered by id so the artifact is deterministic.
    pub(crate) fn finish(mut self, now: Cycle, unfinished: u64) -> JourneyLog {
        self.log.unfinished_packets = unfinished;
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
    use crate::attribution::LatencyEngine;
    use crate::flit::make_packet;
    use crate::topology::Mesh;

    fn sink(every: u64) -> JourneyRecorder {
        JourneyRecorder::new("test".to_owned(), 9, every)
    }

    /// Journeys alone (attribution off) on a 2x2 mesh.
    fn tracker(every: u64) -> LatencyEngine {
        LatencyEngine::new(Mesh::new(2, 2), false, Some(sink(every)))
    }

    fn head(packet: u64) -> Flit {
        make_packet(packet, packet * 4, 0, 1, 0)[0]
    }

    fn tail(packet: u64) -> Flit {
        make_packet(packet, packet * 4, 0, 1, 0)[3]
    }

    #[test]
    fn spans_tile_the_packet_lifetime() {
        let mut j = tracker(1);
        let h = head(7);
        j.inject(7, 0, 10, || None);
        j.pipeline(7, 0, 4, 13); // 3 cycles NI-queue wait first
        j.link_flit(0, &h, 2, false, 20); // 3 cycles VC/SA wait
        j.pipeline(7, 1, 4, 22);
        j.head_eject(7, 1, 30);
        let latency = 34 + 1 - 10;
        let journey = j.complete(&tail(7), 34, latency).expect("sampled").clone();
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
        j.inject(3, 0, 0, || None);
        j.pipeline(3, 0, 4, 0);
        j.link_flit(0, &h, 2, false, 6);
        j.head_eject(3, 1, 12);
        j.e2e_retx(3, 0, 15); // CRC failed at the destination
        j.pipeline(3, 0, 4, 20);
        j.link_flit(0, &h, 2, false, 26);
        j.head_eject(3, 1, 30);
        let latency = 33 + 1;
        let journey = j.complete(&tail(3), 33, latency).expect("sampled").clone();
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
        j.inject(4, 0, 0, || None);
        j.pipeline(4, 0, 4, 0);
        j.link_flit(0, &h, 5, false, 10); // charge [10, 15)...
        j.e2e_retx(4, 0, 12); // ...but the NACK lands mid-traversal
        j.pipeline(4, 0, 4, 20);
        j.head_eject(4, 1, 30);
        let latency = 30 + 1;
        let journey = j.complete(&tail(4), 30, latency).expect("sampled").clone();
        let c = journey.components();
        assert_eq!(c.retransmission, 12, "wasted window is [0, 12) exactly");
        assert_eq!(c.traversal, 4, "only the delivering generation counts");
        assert_eq!(c.total(), latency);
    }

    #[test]
    fn sampling_gates_tracking_and_drops_count() {
        let mut j = tracker(0); // every = 0: nothing sampled
        j.inject(1, 0, 0, || None);
        assert!(j.complete(&tail(1), 5, 6).is_none());
        let mut j = tracker(1);
        j.inject(2, 0, 0, || None);
        j.drop(2);
        let log = j.finish(10).1.expect("journeys on");
        assert_eq!(log.dropped_packets, 1);
        assert!(log.packets.is_empty());
    }

    #[test]
    fn txn_events_become_leg_timelines() {
        let mut j = sink(1);
        let ev = |cycle, attempt, kind| TxnEvent { cycle, node: 2, txn: 5, peer: 9, attempt, kind };
        j.on_txn_event(&ev(10, 1, TxnEventKind::Issued));
        j.on_txn_event(&ev(50, 1, TxnEventKind::TimedOut));
        j.on_txn_event(&ev(60, 2, TxnEventKind::Retried));
        j.on_txn_event(&ev(90, 2, TxnEventKind::Completed));
        let log = j.finish(100, 0);
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
        let mut j = sink(1);
        j.on_txn_event(&TxnEvent {
            cycle: 10,
            node: 0,
            txn: 1,
            peer: 3,
            attempt: 1,
            kind: TxnEventKind::Issued,
        });
        let log = j.finish(40, 0);
        assert_eq!(log.txns[0].outcome, TxnOutcome::Unresolved);
        assert_eq!(log.txns[0].resolved_at, 40);
    }
}
