//! The one instrumentation seam of the simulator.
//!
//! A [`Probe`] owns every sink that *explains* a run — event tracer, span
//! profiler, flight recorder, and the latency engine (attribution and
//! journey tracing: one clock per packet) — behind a fixed set of event
//! points. [`crate::Network`] holds exactly one probe
//! and calls one event point per instrumented site; each point fans out to
//! whichever sinks are installed and is a not-taken branch per absent sink.
//! Sinks read simulator state but never write it, so cycle-domain results
//! are identical whatever is installed.
//!
//! Only `network.rs` and its layer modules call the event points, and only
//! from inside `step_cycle`. Every wall-clock read of the simulator happens
//! behind the span points here ([`Probe::span_enter`], [`Probe::leaf_enter`]),
//! where the profiler decides per span path whether this occurrence is timed.
//!
//! Events have one ring: the caller's tracer or, with only a flight
//! recorder installed, a ring as long as the recorder's event tail. Each
//! event point is one push into it. The recorder is shared behind a lock,
//! and no event point takes it: when the probe is finished or dropped, it
//! copies in, under one lock, what the probe holds for it — the ring's
//! tail, the span table with the open span path (before any span is
//! closed), and the slowest journeys of the latency engine's log. Every
//! bundle is written after its run's `Network` is finished or gone: a run
//! that panics mid-cycle drops its `Network` while unwinding, before the
//! runner writes the post-mortem bundle, so the bundle still holds all
//! three, taken at the panic.

use crate::attribution::LatencyEngine;
use crate::flit::{Cycle, Flit};
use crate::journey::JourneyRecorder;
use crate::topology::Mesh;
use noc_telemetry::{
    AttributionArtifacts, Event, JourneyCause, JourneyLog, LeafSpan, Profiler, RetxScope,
    SharedRecorder, TraceFilter, Tracer, EVENT_RING_FACTOR,
};
use noc_traffic::{TxnEvent, TxnEventKind};
use std::sync::PoisonError;

/// Which sinks [`crate::Network::install_probe`] installs. The default
/// installs nothing.
#[derive(Debug, Default)]
pub struct ProbeConfig {
    /// Structured event tracer.
    pub tracer: Option<Tracer>,
    /// Span profiler.
    pub profiler: Option<Profiler>,
    /// Per-flit latency attribution and the spatial accumulators behind the
    /// `inspect` artifacts.
    pub attribution: bool,
    /// Flight recorder, shared with the harness so post-mortem bundles
    /// survive a panicking run. When the probe closes it receives the last
    /// `capacity × EVENT_RING_FACTOR` events of the stream — of `tracer`'s
    /// ring if one is installed, which then bounds that tail — and, from
    /// the other installed sinks, the span table and the slowest journeys.
    pub blackbox: Option<SharedRecorder>,
    /// Journey tracing as `(seed, every)`: one in `every` packets (and, for
    /// closed-loop workloads, transactions) is selected by a pure hash of
    /// `(seed, id)` and its hop-span timeline recorded.
    pub journeys: Option<(u64, u64)>,
}

/// What [`crate::Network::take_probe`] hands back: each sink's artifact,
/// present iff the sink was installed. (The flight recorder is shared; its
/// owner already holds it.)
#[derive(Debug, Default)]
pub struct ProbeArtifacts {
    /// The event trace.
    pub tracer: Option<Tracer>,
    /// The span profiler.
    pub profiler: Option<Profiler>,
    /// Latency attribution folded into renderable artifacts.
    pub attribution: Option<AttributionArtifacts>,
    /// The journey log, closed at the current cycle.
    pub journeys: Option<JourneyLog>,
}

/// The installed sinks and the event points that feed them.
#[derive(Debug, Default)]
pub(crate) struct Probe {
    /// The event ring: the caller's tracer, or the recorder's own ring.
    pub(crate) ring: Option<Tracer>,
    /// Whether `ring` is the caller's tracer, handed back by `finish`.
    pub(crate) traced: bool,
    pub(crate) profiler: Option<Profiler>,
    /// Let go once it has what the probe holds for it.
    blackbox: Option<SharedRecorder>,
    /// Installed when attribution or journey tracing (or both) is on.
    latency: Option<LatencyEngine>,
}

impl Probe {
    /// Builds the sinks `cfg` asks for, for a network on `mesh` driven by
    /// the workload called `workload`.
    pub(crate) fn new(cfg: ProbeConfig, mesh: &Mesh, workload: &str) -> Self {
        let journeys = cfg
            .journeys
            .map(|(seed, every)| JourneyRecorder::new(workload.to_owned(), seed, every));
        let latency = (cfg.attribution || journeys.is_some())
            .then(|| LatencyEngine::new(*mesh, cfg.attribution, journeys));
        let traced = cfg.tracer.is_some();
        let ring = cfg.tracer.or_else(|| {
            let recorder = cfg.blackbox.as_ref()?.lock().unwrap_or_else(PoisonError::into_inner);
            Some(Tracer::new(recorder.capacity() * EVENT_RING_FACTOR, TraceFilter::all()))
        });
        Probe { ring, traced, profiler: cfg.profiler, blackbox: cfg.blackbox, latency }
    }

    /// Closes every sink at cycle `now`, handing the recorder its copies
    /// first.
    pub(crate) fn finish(mut self, now: Cycle) -> ProbeArtifacts {
        self.hand_over();
        let (attribution, journeys) = self.latency.take().map_or((None, None), |e| e.finish(now));
        let (tracer, profiler) = (self.ring.take().filter(|_| self.traced), self.profiler.take());
        ProbeArtifacts { tracer, profiler, attribution, journeys }
    }

    /// Copies into the recorder, under one lock, the ring's tail, the span
    /// table with its open path and the slowest finished journeys, and lets
    /// the recorder go, so it happens once per probe.
    fn hand_over(&mut self) {
        let Some(bb) = self.blackbox.take() else { return };
        let mut rec = bb.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ring) = &self.ring {
            rec.copy_event_tail(ring);
        }
        if let Some(prof) = &self.profiler {
            rec.copy_spans(prof);
        }
        if let Some(journeys) = self.latency.as_ref().and_then(LatencyEngine::journeys) {
            rec.copy_slowest_journeys(journeys);
        }
    }

    /// Whether the workload must buffer transaction-lifecycle events: some
    /// installed sink consumes them. This is the only place that decides.
    pub(crate) fn wants_txn_events(&self) -> bool {
        self.ring.is_some() || self.latency.as_ref().is_some_and(LatencyEngine::traces_journeys)
    }

    /// Records `event` in the ring.
    #[inline]
    pub(crate) fn event(&mut self, event: Event) {
        if let Some(t) = self.ring.as_mut() {
            t.record(event);
        }
    }

    /// One transaction-lifecycle event drained from the workload.
    pub(crate) fn txn_event(&mut self, ev: &TxnEvent) {
        if let Some(e) = self.latency.as_mut() {
            e.txn_event(ev);
        }
        let (cycle, txn, attempt) = (ev.cycle, ev.txn, ev.attempt);
        let (router, peer) = (ev.node as u32, ev.peer as u32);
        self.event(match ev.kind {
            TxnEventKind::Issued => Event::TxnIssued { cycle, router, txn, peer },
            TxnEventKind::Completed => Event::TxnCompleted { cycle, router, txn, peer },
            TxnEventKind::TimedOut => Event::TxnTimedOut { cycle, router, txn, attempt },
            TxnEventKind::Retried => Event::TxnRetried { cycle, router, txn, attempt },
            TxnEventKind::Failed => Event::TxnFailed { cycle, router, txn },
            TxnEventKind::Shed => Event::TxnShed { cycle, router, txn, peer },
        });
    }

    /// A packet entered the NI queue of router `src`; `txn` looks up its
    /// transaction tag and runs only when its journey is traced.
    #[inline]
    pub(crate) fn inject(
        &mut self,
        packet: u64,
        src: u16,
        dest: u16,
        now: Cycle,
        txn: impl FnOnce() -> Option<(u64, u32, bool)>,
    ) {
        if let Some(e) = self.latency.as_mut() {
            e.inject(packet, src, now, txn);
        }
        let (router, dest) = (u32::from(src), u32::from(dest));
        self.event(Event::PacketInjected { cycle: now, router, packet, dest });
    }

    /// A flit was pushed into directed channel `ci` at `now`, consumable
    /// downstream `cost` cycles later.
    #[inline]
    pub(crate) fn link_flit(
        &mut self,
        ci: usize,
        flit: &Flit,
        cost: u64,
        bypass: bool,
        now: Cycle,
    ) {
        if let Some(e) = self.latency.as_mut() {
            e.link_flit(ci, flit, cost, bypass, now);
        }
    }

    /// A head flit entered an input VC of `router` with `cost` pipeline
    /// cycles before it can be granted.
    #[inline]
    pub(crate) fn pipeline(&mut self, packet: u64, router: u16, cost: u64, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.pipeline(packet, router, cost, now);
        }
    }

    /// A flit held in channel `ci` was NACKed by router `at` and stalls
    /// `cost` cycles.
    #[inline]
    pub(crate) fn hop_retx(&mut self, ci: usize, flit: &Flit, at: usize, cost: u64, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.hop_retx(ci, flit, cost, now);
        }
        let (router, packet) = (at as u32, flit.packet_id);
        self.event(Event::Retransmission { cycle: now, router, packet, scope: RetxScope::Hop });
    }

    /// The packet of `f` restarts from its source NI (end-to-end
    /// retransmission), reported at router `at`.
    #[inline]
    pub(crate) fn e2e_retx(&mut self, f: &Flit, at: usize, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.e2e_retx(f.packet_id, f.src, now);
        }
        let (router, packet) = (at as u32, f.packet_id);
        self.event(Event::Retransmission { cycle: now, router, packet, scope: RetxScope::E2e });
    }

    /// The head flit of the current generation ejected at its destination.
    #[inline]
    pub(crate) fn head_eject(&mut self, head: &Flit, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.head_eject(head.packet_id, head.dest, now);
        }
    }

    /// The tail flit ejected at `now`; the packet completed with measured
    /// end-to-end `latency`.
    #[inline]
    pub(crate) fn complete(&mut self, tail: &Flit, now: Cycle, latency: u64) {
        if let Some(e) = self.latency.as_mut() {
            e.complete(tail, now, latency);
        }
    }

    /// The packet of `f` was accounted as permanently lost.
    #[inline]
    pub(crate) fn drop(&mut self, f: &Flit, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.drop(f.packet_id);
        }
        let (router, bits) = (u32::from(f.src), u32::from(f.generation));
        self.event(Event::PacketDropped { cycle: now, router, packet: f.packet_id, bits });
    }

    /// The packet left its XY route (port `from`) for port `to` at `router`.
    #[inline]
    pub(crate) fn reroute(&mut self, packet: u64, router: usize, from: u8, to: u8, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.mark(packet, router as u16, now, JourneyCause::Reroute);
        }
        self.event(Event::Rerouted { cycle: now, router: router as u32, packet, from, to });
    }

    /// ECC corrected `bits` flipped bits of the packet at `router`.
    #[inline]
    pub(crate) fn ecc_corrected(&mut self, packet: u64, router: usize, bits: u32, now: Cycle) {
        if let Some(e) = self.latency.as_mut() {
            e.mark(packet, router as u16, now, JourneyCause::EccCorrected);
        }
        self.event(Event::EccCorrected { cycle: now, router: router as u32, packet, bits });
    }

    /// One gating-phase cycle: `gated(r)` says whether router `r` is
    /// gated, waking or hard-failed.
    #[inline]
    pub(crate) fn gate_cycle(&mut self, nodes: usize, gated: impl Fn(usize) -> bool) {
        if let Some(e) = self.latency.as_mut() {
            e.gate_cycle((0..nodes).filter(|&r| gated(r)));
        }
    }

    /// One epoch's temperature sample per router.
    #[inline]
    pub(crate) fn temp_epoch(&mut self, nodes: usize, temp_c: impl Fn(usize) -> f64) {
        if let Some(e) = self.latency.as_mut() {
            e.temp_epoch((0..nodes).map(temp_c));
        }
    }

    /// Opens a profiling span.
    #[inline]
    pub(crate) fn span_enter(&mut self, name: &'static str) {
        if let Some(p) = self.profiler.as_mut() {
            p.span_enter(name);
        }
    }

    /// Closes the innermost profiling span.
    #[inline]
    pub(crate) fn span_exit(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.span_exit();
        }
    }

    /// Charges cycle-domain counts to the innermost open span.
    #[inline]
    pub(crate) fn span_count(&mut self, flits: u64, allocs: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.span_count(flits, allocs);
        }
    }

    /// Opens a leaf span under the current path (`None` when not
    /// profiling) — pair with [`Probe::leaf_exit`]. Leaves stay off the span
    /// stack: counts charged while one is open land on the enclosing span.
    #[inline]
    pub(crate) fn leaf_enter(&mut self, name: &'static str) -> Option<LeafSpan> {
        self.profiler.as_mut().map(|p| p.leaf_enter(name))
    }

    /// Closes the leaf span `leaf`, charging it `flits` handled.
    #[inline]
    pub(crate) fn leaf_exit(&mut self, leaf: Option<LeafSpan>, flits: u64) {
        if let (Some(leaf), Some(p)) = (leaf, self.profiler.as_mut()) {
            p.leaf_exit(leaf, flits);
        }
    }
}

impl Drop for Probe {
    /// A probe dropped unfinished — replaced, or unwound by a panic — still
    /// hands the recorder its copies.
    fn drop(&mut self) {
        self.hand_over();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;
    use crate::{Network, SimConfig};
    use noc_fault::{HardFault, HardFaultKind, HardFaultScenario, HardFaultTarget};
    use noc_telemetry::{parse_bundle, shared_recorder, BundleCause, BundleHead, TraceFilter};
    use noc_traffic::{Workload, WorkloadSpec};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// An exhausted workload that publishes its txn-event recording switch.
    #[derive(Debug)]
    struct Spy(Arc<AtomicBool>);

    impl Workload for Spy {
        fn poll(&mut self, _: u64, _: usize, _: usize) -> Option<usize> {
            None
        }
        fn is_exhausted(&self) -> bool {
            true
        }
        fn name(&self) -> &str {
            "spy"
        }
        fn set_txn_event_recording(&mut self, on: bool) {
            self.0.store(on, Ordering::Relaxed);
        }
    }

    #[test]
    fn workload_buffers_txn_events_iff_a_consuming_sink_is_installed() {
        for subset in 0..8u8 {
            let recording = Arc::new(AtomicBool::new(false));
            let mut net =
                Network::with_workload(SimConfig::default(), Box::new(Spy(recording.clone())));
            net.install_probe(ProbeConfig {
                tracer: (subset & 1 != 0).then(|| Tracer::new(16, TraceFilter::default())),
                blackbox: (subset & 2 != 0).then(|| shared_recorder(4)),
                journeys: (subset & 4 != 0).then_some((9, 1)),
                // Neither of these consumes transaction events.
                profiler: Some(Profiler::new()),
                attribution: true,
            });
            assert_eq!(recording.load(Ordering::Relaxed), subset != 0, "subset {subset:03b}");
            let taken = net.take_probe();
            assert_eq!(taken.tracer.is_some(), subset & 1 != 0);
            assert_eq!(taken.journeys.is_some(), subset & 4 != 0);
            assert!(!recording.load(Ordering::Relaxed), "subset {subset:03b} after take_probe");
        }
    }

    /// The recorder's events so far, oldest first.
    fn recorded(bb: &SharedRecorder) -> Vec<Event> {
        bb.lock().expect("recorder lock").events().to_vec()
    }

    /// The recorder gets the ring's tail once, when the probe closes:
    /// nothing while the network runs, and on `take_probe` the stream's
    /// tail, which here ends on the watchdog's stall. With no tracer the ring
    /// is the probe's own, sized to the recorder's event tail and no
    /// caller's tracer, and a finished or a dropped probe hands it over
    /// alike.
    #[test]
    fn recorder_receives_the_ring_tail_once_when_the_probe_closes() {
        let mut cfg = SimConfig { width: 4, height: 4, stall_window: 300, ..SimConfig::default() };
        cfg.fault_aware_routing = false;
        cfg.hard_faults = HardFaultScenario {
            faults: vec![HardFault {
                at: 0,
                target: HardFaultTarget::Link { router: 5, dir: 0 },
                kind: HardFaultKind::FailStop,
            }],
        };
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.1, 40), 5);
        let bb = shared_recorder(1 << 12);
        let tracer = Some(Tracer::new(1 << 16, TraceFilter::all()));
        net.install_probe(ProbeConfig { tracer, blackbox: Some(bb.clone()), ..Default::default() });
        assert!(net.run_cycles(100_000), "the dead link stalls the run");
        assert!(net.stall().is_some());
        assert!(recorded(&bb).is_empty(), "nothing reaches the recorder while the network runs");
        let stream: Vec<Event> =
            net.tracer().expect("tracer installed").events().copied().collect();
        assert!(matches!(stream.last(), Some(Event::WatchdogStall { .. })));
        assert!(net.take_probe().tracer.is_some_and(|t| t.evicted() == 0));
        assert_eq!(recorded(&bb), stream);

        let events: Vec<Event> = (0..40)
            .map(|packet| Event::PacketInjected { cycle: packet, router: 0, packet, dest: 1 })
            .collect();
        for finish in [false, true] {
            let bb = shared_recorder(2);
            let cfg = ProbeConfig { blackbox: Some(bb.clone()), ..Default::default() };
            let mut probe = Probe::new(cfg, &Mesh::new(2, 2), "test");
            assert!(probe.ring.is_some() && !probe.traced, "the recorder's own ring");
            events.iter().for_each(|&e| probe.event(e));
            assert!(recorded(&bb).is_empty(), "held until the probe closes");
            if finish {
                assert!(probe.finish(9).tracer.is_none());
            } else {
                drop(probe);
            }
            let tail = 2 * EVENT_RING_FACTOR;
            assert_eq!(recorded(&bb), events[events.len() - tail..], "finish: {finish}");
            let c = bb.lock().expect("recorder lock").counters();
            assert_eq!((c.events_recorded, c.events_dropped), (40, 40 - tail as u64));
        }

        // A network dropped without `take_probe` hands the recorder all the
        // probe holds: the span table with its open path, and the slowest
        // journeys, the same ones a taken probe hands over.
        let run = |take: bool| {
            let cfg = SimConfig { width: 4, height: 4, ..SimConfig::default() };
            let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 20), 5);
            let bb = shared_recorder(4);
            net.install_probe(ProbeConfig {
                profiler: Some(Profiler::new()),
                blackbox: Some(bb.clone()),
                journeys: Some((9, 1)),
                ..Default::default()
            });
            assert!(net.run_cycles(200_000) && net.is_done());
            let table = net.profiler().expect("profiler installed").span_tree().tree_table();
            let log = take.then(|| net.take_probe().journeys.expect("journeys traced"));
            drop(net);
            let rec = bb.lock().expect("recorder lock");
            let head = BundleHead {
                cause: BundleCause::Panic,
                key: "dropped".to_owned(),
                seed: 5,
                cycle: 0,
                detail: String::new(),
            };
            let bundle = parse_bundle(&rec.bundle(&head, &[])).expect("bundle parses");
            assert_eq!(bundle.spans_table, Some(table), "take_probe: {take}");
            assert!(bundle.open_spans.is_empty(), "the run stopped between cycles");
            (rec.journeys().to_vec(), rec.counters(), log)
        };
        let (dropped, dropped_counters, _) = run(false);
        let (taken, taken_counters, log) = run(true);
        let mut slowest: Vec<(u64, String)> =
            log.expect("taken").packets.iter().map(|j| (j.latency, j.to_jsonl_line())).collect();
        let recorded = slowest.len() as u64;
        slowest.sort_by(|a, b| b.cmp(a));
        slowest.truncate(4);
        assert_eq!(taken, slowest, "the four slowest, slowest first");
        assert_eq!(dropped, taken);
        assert_eq!(dropped_counters, taken_counters);
        assert_eq!(
            (taken_counters.journeys_recorded, taken_counters.journeys_dropped),
            (recorded, recorded - 4)
        );
    }

    /// No event point takes the recorder's lock, so a lock poisoned before
    /// the run loses nothing: the hand-over recovers it and copies every
    /// finished journey's count and the slowest ones.
    #[test]
    fn a_poisoned_recorder_still_receives_the_hand_over() {
        let bb = shared_recorder(4);
        let poisoner = bb.clone();
        let _ = std::thread::spawn(move || {
            let _held = poisoner.lock().expect("recorder lock");
            panic!("poisons the recorder's lock");
        })
        .join();
        assert!(bb.is_poisoned());
        let cfg = SimConfig { width: 4, height: 4, ..SimConfig::default() };
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 20), 5);
        let cfg = ProbeConfig {
            blackbox: Some(bb.clone()),
            journeys: Some((9, 1)),
            ..Default::default()
        };
        net.install_probe(cfg);
        assert!(net.run_cycles(200_000) && net.is_done());
        let log = net.take_probe().journeys.expect("journeys traced");
        let rec = bb.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(log.packets.len() > 4);
        assert_eq!(rec.counters().journeys_recorded, log.packets.len() as u64);
        assert_eq!(rec.journeys().len(), 4);
    }

    /// A workload that dies when it is polled at cycle 50.
    #[derive(Debug)]
    struct DiesAt50;

    impl Workload for DiesAt50 {
        fn poll(&mut self, cycle: u64, _: usize, _: usize) -> Option<usize> {
            assert!(cycle < 50, "the workload dies mid-cycle");
            None
        }
        fn is_exhausted(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "dies-at-50"
        }
    }

    /// A run that panics mid-cycle unwinds through `Drop for Probe`, so the
    /// recorder holds the span table and the span path open at the panic.
    #[test]
    fn a_panicking_run_hands_over_the_spans_open_at_the_panic() {
        let bb = shared_recorder(4);
        let cfg = SimConfig { width: 4, height: 4, ..SimConfig::default() };
        let mut net = Network::with_workload(cfg, Box::new(DiesAt50));
        let cfg = ProbeConfig {
            profiler: Some(Profiler::new()),
            blackbox: Some(bb.clone()),
            ..Default::default()
        };
        net.install_probe(cfg);
        let run = std::panic::AssertUnwindSafe(move || net.run_cycles(100));
        assert!(std::panic::catch_unwind(run).is_err(), "the workload panics");
        let rec = bb.lock().unwrap_or_else(PoisonError::into_inner);
        let head = BundleHead {
            cause: BundleCause::Panic,
            key: "panicked".to_owned(),
            seed: 0,
            cycle: 0,
            detail: String::new(),
        };
        let bundle = parse_bundle(&rec.bundle(&head, &[])).expect("bundle parses");
        assert_eq!(bundle.open_spans, ["step_cycle", "workload.inject"]);
        let table = bundle.spans_table.expect("the span table");
        assert!(table.lines().any(|l| l.trim_start().starts_with("step_cycle ")), "{table}");
    }

    /// One hook sequence through the probe with both sinks on — every
    /// completion checks the trail against the counters in debug builds —
    /// including an e2e NACK that lands mid-traversal (the trail must clip
    /// the overshooting charge the counters forget).
    #[test]
    fn journey_spans_reproduce_the_attribution_engine() {
        let mesh = Mesh::new(2, 2);
        let cfg = ProbeConfig { attribution: true, journeys: Some((9, 1)), ..Default::default() };
        let mut probe = Probe::new(cfg, &mesh, "test");
        let flits = |packet| make_packet(packet, packet * 4, 0, 1, 0);

        let (head, tail) = (flits(4)[0], flits(4)[3]);
        probe.inject(4, 0, 1, 0, || None);
        probe.pipeline(4, 0, 4, 0);
        probe.link_flit(0, &head, 5, false, 10); // charge [10, 15)...
        probe.e2e_retx(&head, 1, 12); // ...but the NACK lands at 12
        probe.pipeline(4, 0, 4, 20);
        probe.hop_retx(0, &head, 1, 3, 25);
        probe.link_flit(0, &head, 2, true, 28);
        probe.head_eject(&head, 30);
        probe.complete(&tail, 33, 34);

        let (head, tail) = (flits(7)[0], flits(7)[3]);
        probe.inject(7, 0, 1, 100, || None);
        probe.pipeline(7, 0, 4, 103);
        probe.link_flit(0, &head, 1, false, 110);
        probe.reroute(7, 1, 0, 2, 111);
        probe.ecc_corrected(7, 1, 1, 111);
        probe.head_eject(&head, 120);
        probe.complete(&tail, 123, 24);

        let art = probe.finish(200);
        let engine = art.attribution.expect("installed").breakdown.records;
        let journeys = art.journeys.expect("installed").packets;
        assert_eq!(engine.len(), 2);
        for (rec, journey) in engine.iter().zip(&journeys) {
            assert_eq!(rec.packet, journey.packet);
            assert_eq!(journey.components(), rec.components, "packet {}", rec.packet);
            assert_eq!(rec.components.total(), rec.latency);
        }
        let clipped = engine[0].components;
        assert_eq!(clipped.retransmission, 12 + 3, "wasted window [0, 12) plus the hop NACK");
        assert_eq!(clipped.traversal, 4, "only the delivering generation counts");
        assert_eq!(clipped.bypass, 2);
        let markers = journeys[1].spans.iter().filter(|s| s.cause.is_marker()).count();
        assert_eq!(markers, 2, "the reroute and the ECC correction left their markers");
    }
}
