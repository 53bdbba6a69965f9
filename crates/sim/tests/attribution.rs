//! Integration tests for per-flit latency attribution: exact component
//! sums, spatial coverage, and interaction with power gating and
//! re-transmission — all through the public `Network` API. Each packet's own
//! components come from its journey, traced for every packet here; the
//! breakdown keeps their totals.

use noc_ecc::EccScheme;
use noc_sim::{
    AttributionArtifacts, JourneyCause, JourneyLog, Network, ProbeConfig, RouterDirective,
    SimConfig,
};
use noc_telemetry::LatencyBreakdown;
use noc_traffic::WorkloadSpec;

fn install_attribution(net: &mut Network) {
    net.install_probe(ProbeConfig { attribution: true, ..ProbeConfig::default() });
}

fn take_attribution(net: &mut Network) -> Option<AttributionArtifacts> {
    net.take_probe().attribution
}

/// Attribution plus a journey for every packet.
fn install_traced(net: &mut Network) {
    let cfg = ProbeConfig { attribution: true, journeys: Some((0, 1)), ..ProbeConfig::default() };
    net.install_probe(cfg);
}

/// The attribution artifacts and the journey log, checked against each
/// other: every packet's components sum exactly to its measured latency,
/// and the breakdown is those components summed, overall and per pair.
fn take_checked(net: &mut Network) -> (AttributionArtifacts, JourneyLog) {
    let probe = net.take_probe();
    let art = probe.attribution.expect("attribution installed");
    let log = probe.journeys.expect("journeys installed");
    let mut summed = LatencyBreakdown::default();
    for j in &log.packets {
        let c = j.components();
        assert_eq!(
            c.total(),
            j.latency,
            "packet {} components {c:?} != latency {}",
            j.packet,
            j.latency
        );
        summed.record(j.src, j.dest, j.latency, &c);
    }
    assert_eq!(format!("{:?}", art.breakdown), format!("{summed:?}"));
    (art, log)
}

fn quiet() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.varius.base_rate = 0.0;
    cfg.varius.min_rate = 0.0;
    cfg
}

/// Every attributed packet's component breakdown must sum exactly to its
/// measured end-to-end latency, and the totals must sum over all packets.
#[test]
fn components_sum_to_measured_latency() {
    let mut net = Network::new(quiet(), WorkloadSpec::uniform(0.02, 20), 7);
    install_traced(&mut net);
    assert!(net.run_cycles(200_000), "uniform workload must drain");
    let (art, log) = take_checked(&mut net);
    let b = &art.breakdown;
    assert_eq!(b.packets, 64 * 20, "all delivered packets attributed");
    assert_eq!(log.packets.len() as u64, b.packets);
    let total: u64 = log.packets.iter().map(|j| j.latency).sum();
    assert_eq!(b.latency_sum, total);
    assert_eq!(b.totals.total(), total);
    // Per-pair rollups cover every record.
    let pair_packets: u64 = b.pairs.values().map(|p| p.packets).sum();
    assert_eq!(pair_packets, b.packets);
}

/// The folded per-link stats must cover exactly the 112 physical links of
/// an 8x8 mesh, and the heat grids one cell per router.
#[test]
fn spatial_outputs_cover_the_mesh() {
    let mut net = Network::new(quiet(), WorkloadSpec::uniform(0.02, 10), 3);
    install_attribution(&mut net);
    assert!(net.run_cycles(200_000));
    let art = take_attribution(&mut net).expect("attribution installed");
    assert_eq!(art.links.len(), 112, "8x8 mesh has 112 physical links");
    let mut seen = std::collections::BTreeSet::new();
    for l in &art.links {
        assert!(l.a < l.b, "links are canonicalized low-high");
        assert!(seen.insert((l.a, l.b)), "duplicate link {},{}", l.a, l.b);
    }
    assert_eq!(art.grids.len(), 4);
    for g in &art.grids {
        assert_eq!(g.width, 8);
        assert_eq!(g.height, 8);
        assert_eq!(g.cells.len(), 64);
    }
    let util = art.grid("router_utilization").expect("utilization grid present");
    assert!(util.cells.iter().sum::<f64>() > 0.0, "traffic flowed somewhere");
    // Total flits on the utilization grid match the directed link counters.
    let link_flits: u64 = art.links.iter().map(|l| l.flits).sum();
    assert!(link_flits > 0);
}

/// Attribution stays exact under per-hop soft errors: SECDED detects
/// multi-bit flips, NACKs the stored copy, and the stall lands in the
/// retransmission component and the per-link retx counters.
#[test]
fn hop_retransmission_component_appears_under_errors() {
    let mut cfg = SimConfig::default();
    cfg.varius.base_rate = 5e-4;
    cfg.varius.min_rate = 5e-4;
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 20), 11);
    let d = RouterDirective { gate: None, scheme: EccScheme::Secded, relaxed: false };
    net.apply_directives(&[d; 64]);
    install_traced(&mut net);
    assert!(net.run_cycles(400_000));
    let hop_retx = net.stats().hop_retx_events;
    let faulty = net.stats().faulty_traversals;
    assert!(hop_retx > 0, "SECDED at 5e-4 must NACK ({faulty} faulty traversals)");
    let (art, _) = take_checked(&mut net);
    assert!(
        art.breakdown.totals.retransmission > 0,
        "{hop_retx} hop NACKs must charge the retransmission component"
    );
    let link_retx: u64 = art.links.iter().map(|l| l.retx).sum();
    assert!(link_retx > 0, "per-link retx counters must see the NACKs");
}

/// End-to-end CRC failures scrap the whole delivery and re-inject at the
/// source: the wasted generation is charged to retransmission, and a
/// restarted packet's journey shows it as `wasted_gen` spans.
#[test]
fn e2e_retransmission_charges_the_wasted_generation() {
    let mut cfg = SimConfig::default();
    cfg.varius.base_rate = 5e-4;
    cfg.varius.min_rate = 5e-4;
    cfg.e2e_crc = true;
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 20), 13);
    let d = RouterDirective { gate: None, scheme: EccScheme::Crc, relaxed: false };
    net.apply_directives(&[d; 64]);
    install_traced(&mut net);
    assert!(net.run_cycles(400_000));
    let e2e = net.stats().e2e_retx_packets;
    assert!(e2e > 0, "e2e CRC at 5e-4 must scrap at least one delivery");
    // `take_checked` ties the journeys' `wasted_gen` spans to the
    // retransmission the engine charged.
    let (_, log) = take_checked(&mut net);
    let wasted = |j: &&noc_telemetry::PacketJourney| {
        j.spans.iter().any(|s| s.cause == JourneyCause::WastedGen && s.duration() > 0)
    };
    let retx_packets = log.packets.iter().filter(wasted).count() as u64;
    assert!(retx_packets > 0, "some delivered packet must carry a wasted generation");
    assert!(retx_packets <= e2e, "only a restarted packet wastes a generation");
}

/// Gate-residency accumulates when routers are force-gated, and bypass
/// hops are charged to the bypass component. MFAC routers, whose bypass
/// keeps forwarding while a router wakes.
#[test]
fn gate_residency_and_bypass_show_up_when_gated() {
    let mut cfg = quiet();
    cfg.bypass_enabled = true;
    cfg.mfac = true;
    cfg.channel_capacity = 8;
    cfg.vc_depth = 2;
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.001, 3), 5);
    let d = RouterDirective { gate: Some(true), scheme: EccScheme::None, relaxed: false };
    net.apply_directives(&[d; 64]);
    install_traced(&mut net);
    assert!(net.run_cycles(400_000));
    let (art, _) = take_checked(&mut net);
    let gate = art.grid("router_gate_residency").expect("gate grid present");
    assert!(gate.cells.iter().sum::<f64>() > 1.0, "force-gated mesh must show gate residency");
    assert!(art.breakdown.totals.bypass > 0, "gated routers must produce bypass hops");
}

/// Taking the artifacts disables further accounting; reinstalling starts
/// fresh.
#[test]
fn take_disables_and_reinstall_resets() {
    let mut net = Network::new(quiet(), WorkloadSpec::uniform(0.01, 2), 1);
    assert!(take_attribution(&mut net).is_none());
    install_attribution(&mut net);
    assert!(net.run_cycles(100_000));
    let first = take_attribution(&mut net).expect("installed");
    assert!(first.breakdown.packets > 0);
    assert!(take_attribution(&mut net).is_none(), "taking the probe uninstalls its sinks");
    install_attribution(&mut net);
    let empty = take_attribution(&mut net).expect("reinstalled");
    assert_eq!(empty.breakdown.packets, 0);
}
