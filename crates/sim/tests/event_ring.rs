//! Characterization of the flight recorder's event tail: what it holds after
//! an all-sinks run, after a stalled one and beside a filtered tracer, and
//! the bytes a bundle renders for it. The tracer is the one event ring; when
//! the probe is taken the recorder receives a copy of the ring's last
//! `capacity × EVENT_RING_FACTOR` events, whatever the tracer's filter
//! shows, and its counters count the whole stream. A change to *when* or
//! *how* events reach the recorder passes only if every one of those bytes
//! stayed where it was.

use noc_sim::{
    shared_recorder, BundleCause, BundleHead, Event, EventKind, HardFault, HardFaultKind,
    HardFaultScenario, HardFaultTarget, Network, ProbeConfig, Profiler, SharedRecorder, SimConfig,
    TraceFilter, Tracer, DEFAULT_TRACE_CAPACITY,
};
use noc_telemetry::EVENT_RING_FACTOR;
use noc_traffic::{ReqReplySpec, WorkloadSpec};

/// FNV-1a, 64 bit: the digest every pin below is stated in.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Recorder capacity of every run: its event tail holds 16× this.
const CAPACITY: usize = 16;

/// Every sink on, the tracer unfiltered and large enough to keep the whole
/// stream.
fn install_all_sinks(net: &mut Network, recorder: &SharedRecorder) {
    net.install_probe(ProbeConfig {
        tracer: Some(Tracer::new(DEFAULT_TRACE_CAPACITY, TraceFilter::all())),
        profiler: Some(Profiler::new()),
        attribution: true,
        blackbox: Some(recorder.clone()),
        journeys: Some((9, 1)),
    });
}

/// Takes the probe, checks the recorder's tail and counters against the
/// tracer's stream and returns the digest of the bundle's counters and event
/// lines.
fn check_ring(net: &mut Network, recorder: &SharedRecorder, cause: BundleCause) -> u64 {
    let before = recorder.lock().expect("recorder lock").counters();
    assert_eq!(before.events_recorded, 0, "the recorder gets events when the probe closes");
    let tracer = net.take_probe().tracer.expect("tracer installed");
    assert_eq!(tracer.evicted(), 0, "the tracer keeps the whole stream");
    let stream: Vec<Event> = tracer.events().copied().collect();
    let rec = recorder.lock().expect("recorder lock");
    let ring = CAPACITY * EVENT_RING_FACTOR;
    assert!(stream.len() > ring, "the run overflows the ring ({} events)", stream.len());
    let tail = &stream[stream.len() - ring..];
    assert!(rec.events().iter().eq(tail.iter()), "the ring is the stream's last {ring} events");
    let c = rec.counters();
    assert_eq!(c.events_recorded, stream.len() as u64);
    assert_eq!(c.events_dropped, (stream.len() - ring) as u64);
    let head = BundleHead {
        cause,
        key: "event-ring".to_owned(),
        seed: 3,
        cycle: rec.last_cycle(),
        detail: String::new(),
    };
    let section: String = rec
        .bundle(&head, &[])
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"counters\"") || l.starts_with("{\"record\":\"event\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    fnv1a(&section)
}

/// A closed-loop run over two dead links at a forced error rate: packet,
/// transaction, retransmission, reroute and link-down events all reach the
/// ring.
#[test]
fn all_sinks_ring_is_the_tracer_stream_tail() {
    let cfg = SimConfig {
        fault_aware_routing: true,
        hard_faults: HardFaultScenario::dead_links(8, 8, 2, 3, 300),
        ..SimConfig::default()
    };
    let workload = WorkloadSpec::reqreply(0.02, 12, ReqReplySpec::default());
    let mut net = Network::new(cfg, workload, 3);
    net.set_error_rate_override(Some(2e-4));
    let recorder = shared_recorder(CAPACITY);
    install_all_sinks(&mut net, &recorder);
    assert!(net.run_cycles(400_000), "the run finishes");
    assert!(net.stall().is_none());
    let tracer = net.tracer().expect("tracer installed");
    for kind in [
        EventKind::TxnIssued,
        EventKind::Retransmission,
        EventKind::Rerouted,
        EventKind::LinkFailed,
    ] {
        assert!(tracer.count_of(kind) > 0, "the stream carries {kind:?}");
    }
    let digest = check_ring(&mut net, &recorder, BundleCause::Timeout);
    assert_eq!(digest, 0x2959_66a0_66eb_ca85);
}

/// `hard_faults.rs::stall_report_text_is_pinned`'s run, which the watchdog
/// ends at cycle 14 374: the stall is the ring's last event, and so the
/// recorder's once the probe is taken.
#[test]
fn stalled_ring_ends_on_the_watchdog_stall() {
    let mut cfg = SimConfig {
        fault_aware_routing: false,
        channel_capacity: 8,
        stall_window: 5_000,
        hard_faults: HardFaultScenario {
            faults: vec![HardFault {
                at: 1_000,
                target: HardFaultTarget::Link { router: 27, dir: 0 },
                kind: HardFaultKind::Intermittent { period: 1_000_000, down: 999_999 },
            }],
        },
        ..SimConfig::default()
    };
    cfg.varius.base_rate = 0.0;
    cfg.varius.min_rate = 0.0;
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 400), 3);
    let recorder = shared_recorder(CAPACITY);
    install_all_sinks(&mut net, &recorder);
    assert!(net.run_cycles(2_000_000), "watchdog must end the run");
    assert_eq!(net.stall().expect("the run stalls").cycle, 14_374);
    let digest = check_ring(&mut net, &recorder, BundleCause::Stall);
    let last = recorder.lock().expect("recorder lock").events().last().copied();
    assert!(
        matches!(last, Some(Event::WatchdogStall { cycle: 14_374, .. })),
        "last recorded event: {last:?}"
    );
    assert_eq!(digest, 0x5b98_c1ba_9eca_831d);
}

/// A tracer filtered to retransmissions next to the recorder, on an
/// open-loop run over two dead links at a forced error rate that the cycle
/// budget cuts off with packets in flight (a forced timeout). The recorder
/// keeps the unfiltered stream's tail and counts the whole stream; the
/// tracer shows only retransmissions. Both are read after the probe is
/// taken, and the stream stays far below the tracer's `DEFAULT_TRACE_CAPACITY`
/// ring, so every pin below holds whether the filter applies when an event
/// is recorded or when the ring is read.
#[test]
fn filtered_tracer_beside_the_recorder_is_pinned() {
    let cfg = SimConfig {
        fault_aware_routing: true,
        hard_faults: HardFaultScenario::dead_links(8, 8, 2, 3, 300),
        max_cycles: 6_000,
        ..SimConfig::default()
    };
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 400), 3);
    net.set_error_rate_override(Some(2e-4));
    let recorder = shared_recorder(CAPACITY);
    let retx = TraceFilter::parse("kind=retx", 64).expect("valid filter");
    net.install_probe(ProbeConfig {
        tracer: Some(Tracer::new(DEFAULT_TRACE_CAPACITY, retx)),
        blackbox: Some(recorder.clone()),
        ..ProbeConfig::default()
    });
    assert!(net.run_cycles(1_000_000), "the cycle budget ends the run");
    assert!(!net.is_done() && net.stall().is_none(), "cut off with packets in flight");
    let tracer = net.take_probe().tracer.expect("tracer installed");

    let rec = recorder.lock().expect("recorder lock");
    let c = rec.counters();
    let ring = (CAPACITY * EVENT_RING_FACTOR) as u64;
    assert!(c.events_recorded > ring, "the run overflows the recorder's ring");
    assert!(c.events_recorded < DEFAULT_TRACE_CAPACITY as u64, "the tracer's ring keeps it all");
    assert_eq!(c.events_dropped, c.events_recorded - ring);
    let head = BundleHead {
        cause: BundleCause::Timeout,
        key: "event-ring/filtered".to_owned(),
        seed: 3,
        cycle: rec.last_cycle(),
        detail: String::new(),
    };
    let section: String = rec
        .bundle(&head, &[])
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"counters\"") || l.starts_with("{\"record\":\"event\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(fnv1a(&section), 0x9e6e_4db3_0e91_ec48);

    assert!(!tracer.is_empty(), "the forced error rate causes retransmissions");
    assert!(tracer.events().all(|e| e.kind() == EventKind::Retransmission));
    assert_eq!(fnv1a(&tracer.to_jsonl()), 0xe0e2_23a9_92b7_def6);
}
