//! Characterization of the flight recorder's event ring: what it holds after
//! an all-sinks run and after a stalled one, and the bytes a bundle renders
//! for it. The recorder sees exactly the tracer's event stream, so with an
//! unfiltered tracer its ring is the stream's last `capacity ×
//! EVENT_RING_FACTOR` events and its counters count the whole stream. A
//! change to *when* events reach the recorder passes only if every one of
//! those bytes stayed where it was.

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

/// Ring capacity of both runs: the event ring holds 16× this.
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

/// Checks the recorder's ring and counters against the tracer's stream and
/// returns the digest of the bundle's counters and event lines.
fn check_ring(net: &Network, recorder: &SharedRecorder, cause: BundleCause) -> u64 {
    let tracer = net.tracer().expect("tracer installed");
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
    let digest = check_ring(&net, &recorder, BundleCause::Timeout);
    assert_eq!(digest, 0x2959_66a0_66eb_ca85);
    // Closing the sinks hands the recorder nothing more.
    let before = recorder.lock().expect("recorder lock").counters();
    drop(net.take_probe());
    assert_eq!(recorder.lock().expect("recorder lock").counters(), before);
}

/// `hard_faults.rs::stall_report_text_is_pinned`'s run, which the watchdog
/// ends at cycle 14 374: the stall is the ring's last event, there the
/// moment `run_cycles` returns.
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
    let last = recorder.lock().expect("recorder lock").events().back().copied();
    assert!(
        matches!(last, Some(Event::WatchdogStall { cycle: 14_374, .. })),
        "last recorded event: {last:?}"
    );
    let digest = check_ring(&net, &recorder, BundleCause::Stall);
    assert_eq!(digest, 0x5b98_c1ba_9eca_831d);
}
