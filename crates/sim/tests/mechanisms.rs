//! Behavioral tests for the simulator's paper-specific mechanisms:
//! MFAC storage, power-gating bypass semantics, BST continuation, and the
//! re-transmission machinery — exercised through the public API.

use noc_ecc::EccScheme;
use noc_sim::{
    Event, GateEdge, Network, ProbeConfig, RouterDirective, SimConfig, TraceFilter, Tracer,
};
use noc_traffic::{TraceRecord, WorkloadSpec};

fn quiet() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.varius.base_rate = 0.0;
    cfg.varius.min_rate = 0.0;
    cfg
}

/// IntelliNoC's router: MFAC channel storage under a bypass that keeps
/// forwarding while its router wakes.
fn gated_config() -> SimConfig {
    let mut cfg = quiet();
    cfg.bypass_enabled = true;
    cfg.mfac = true;
    cfg.channel_capacity = 8;
    cfg.vc_depth = 2;
    cfg
}

/// Drives a single packet along a straight row so the whole path can be
/// force-gated and the flit must ride the bypass end-to-end.
#[test]
fn straight_path_flows_through_gated_routers() {
    let cfg = gated_config();
    // Source node 0, destination node 7: pure +X path along row 0.
    let records = vec![TraceRecord { cycle: 200, src: 0, dest: 7, size_flits: 4 }];
    let spec = WorkloadSpec::replay("straight", records, 64).expect("records fit the mesh");
    let mut net = Network::new(cfg, WorkloadSpec { window: 4, ..spec }, 0);
    let d = RouterDirective { gate: Some(true), scheme: EccScheme::None, relaxed: false };
    net.apply_directives(&[d; 64]);
    assert!(net.run_cycles(100_000), "straight bypass path must drain");
    assert_eq!(net.stats().packets_delivered, 1);
    // Everything was idle except the one packet: routers spent most cycles
    // gated.
    assert!(
        net.stats().gated_router_cycles > 40 * net.stats().cycles,
        "gated {} of {}x64 router-cycles",
        net.stats().gated_router_cycles,
        net.stats().cycles
    );
}

/// A turning packet cannot use the crossbar-less bypass: the turn router
/// must wake up, and the packet still arrives.
#[test]
fn turning_packet_wakes_the_gated_turn_router() {
    let cfg = gated_config();
    // (1,0) -> (3,2): XY turns at node 3 (x=3,y=0).
    let records = vec![TraceRecord { cycle: 200, src: 1, dest: 19, size_flits: 4 }];
    let spec = WorkloadSpec::replay("turn", records, 64).expect("records fit the mesh");
    let mut net = Network::new(cfg, WorkloadSpec { window: 4, ..spec }, 0);
    let d = RouterDirective { gate: Some(true), scheme: EccScheme::None, relaxed: false };
    net.apply_directives(&[d; 64]);
    assert!(net.run_cycles(100_000));
    assert_eq!(net.stats().packets_delivered, 1);
    // At least one wake-up must have occurred (the turn router).
    let report = net.report();
    assert!(report.stats.packets_delivered == 1);
}

/// MFAC channel storage absorbs bursts that would otherwise stall: with
/// zero channel capacity the same burst takes longer to drain.
#[test]
fn channel_storage_improves_burst_drain() {
    let run = |capacity: usize| {
        let mut cfg = quiet();
        cfg.channel_capacity = capacity;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.08, 40), 5);
        assert!(net.run_cycles(2_000_000));
        net.report().exec_cycles
    };
    let without = run(0);
    let with = run(8);
    assert!(with <= without, "8-stage channels ({with}) must not be slower than wires ({without})");
}

/// TECQED (the t = 3 extension scheme) corrects more per hop and therefore
/// re-transmits less than SECDED at the same high error rate.
#[test]
fn tecqed_retransmits_less_than_secded() {
    let run = |scheme| {
        let cfg = SimConfig { default_scheme: scheme, ..SimConfig::default() };
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 20), 31);
        net.set_error_rate_override(Some(3e-4));
        assert!(net.run_cycles(2_000_000));
        assert_eq!(net.stats().packets_delivered, 64 * 20);
        net.stats().clone()
    };
    let secded = run(EccScheme::Secded);
    let tecqed = run(EccScheme::Tecqed);
    assert!(secded.hop_retx_events > 0);
    assert!(
        tecqed.hop_retx_events < secded.hop_retx_events,
        "TECQED {} vs SECDED {}",
        tecqed.hop_retx_events,
        secded.hop_retx_events
    );
    assert_eq!(tecqed.corrupted_packets, 0);
}

/// Per-hop re-transmission preserves data integrity: even at a brutal
/// forced error rate, SECDED+NACK delivers every packet uncorrupted.
#[test]
fn retransmission_machinery_is_lossless() {
    let cfg = SimConfig { default_scheme: EccScheme::Dected, ..SimConfig::default() };
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 20), 6);
    net.set_error_rate_override(Some(3e-4));
    assert!(net.run_cycles(2_000_000));
    let s = net.stats();
    assert_eq!(s.packets_delivered, 64 * 20);
    assert!(s.faulty_traversals > 500, "forced rate must bite: {}", s.faulty_traversals);
    assert_eq!(s.corrupted_packets, 0);
}

/// Wormhole ordering: packets between the same pair arrive in order under a
/// deterministic single-flow workload (per-packet order is a simulator
/// invariant the skip-scan must preserve).
#[test]
fn single_flow_packets_arrive_in_injection_order() {
    let cfg = quiet();
    let records: Vec<TraceRecord> =
        (0..50).map(|i| TraceRecord { cycle: 10 * i, src: 0, dest: 63, size_flits: 4 }).collect();
    let spec = WorkloadSpec::replay("flow", records, 64).expect("records fit the mesh");
    let mut net = Network::new(cfg, WorkloadSpec { window: 50, ..spec }, 0);
    assert!(net.run_cycles(1_000_000));
    assert_eq!(net.stats().packets_delivered, 50);
    // Strictly increasing delivery is implied by max latency being bounded:
    // with in-order VCs a later packet cannot finish a full window earlier.
    assert!(net.stats().latency_max < 10_000);
}

/// Directives are sticky until replaced: an applied ECC scheme shows up in
/// the ECC activity counters through the power report.
#[test]
fn directives_change_ecc_activity() {
    let run = |scheme| {
        let mut cfg = quiet();
        cfg.default_scheme = scheme;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 15), 7);
        assert!(net.run_cycles(1_000_000));
        net.report().power.dynamic_mw
    };
    let crc_only = run(EccScheme::None);
    let dected = run(EccScheme::Dected);
    assert!(
        dected > crc_only * 1.05,
        "DECTED encode/decode energy must show up: {dected} vs {crc_only}"
    );
}

/// The gating state machine goes all the way round under reactive gating:
/// a router gates (`On` edge: `On` → `Gated`) and a wake completes (`Off`
/// edge: `Waking` → `On`). CP's router, without MFACs: the first flit in a
/// gated router's channel wakes it.
#[test]
fn gate_wake_cycle_reaches_all_states() {
    let mut cfg = gated_config();
    cfg.reactive_gating = true;
    cfg.mfac = false;
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.01, 30), 8);
    let gate_edges = TraceFilter::parse("kind=gate", 64).expect("valid filter");
    let tracer = Tracer::new(1 << 16, gate_edges);
    net.install_probe(ProbeConfig { tracer: Some(tracer), ..ProbeConfig::default() });
    assert!(net.run_cycles(2_000_000));
    assert_eq!(net.stats().packets_delivered, 64 * 30);
    let tracer = net.take_probe().tracer.expect("tracer installed");
    let edges: Vec<GateEdge> = tracer
        .events()
        .filter_map(|e| match e {
            Event::PowerGate { edge, .. } => Some(*edge),
            _ => None,
        })
        .collect();
    assert!(edges.contains(&GateEdge::On), "no router ever gated");
    assert!(edges.contains(&GateEdge::Off), "no wake-up ever completed");
}

/// Latency percentiles are consistent with the recorded min/avg/max.
#[test]
fn latency_percentiles_are_ordered() {
    let cfg = quiet();
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.04, 40), 9);
    assert!(net.run_cycles(2_000_000));
    let s = net.stats();
    let p50 = s.latency_percentile(0.5);
    let p95 = s.latency_percentile(0.95);
    let p99 = s.latency_percentile(0.99);
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert!(p99 <= s.latency_max as f64 * 1.2);
    assert!(s.avg_latency() >= p50 * 0.3 && s.avg_latency() <= p99 * 1.2);
    assert_eq!(s.latency_hist.count(), s.packets_delivered);
}

// ----------------------------------------------------------------------
// Characterization of the gated-receiver link-traversal arms.
//
// A flit crossing a link into a *gated* router takes one of two paths the
// benchmark workloads barely reach: ejecting at the gated router's own NI
// (which decodes the per-hop codeword and may NACK) or transiting it
// through the bypass (no decode: flips ride the still-encoded codeword to
// the next powered router). These cases pin what the simulator produces
// there today — stats and the energy ledger, exactly — so a change to the
// traversal, NACK, escalation or energy-accounting code shows up here. A
// deliberate model change re-records them like `BENCH_designs.json`.
// ----------------------------------------------------------------------

/// 400 four-flit packets `src → 7` along row 0, one every 40 cycles from
/// cycle 100, with only `gated` power-gated (every other router is forced
/// awake) and `scheme` on every link, under a forced per-bit error rate.
fn gated_receiver_run(
    scheme: EccScheme,
    rate: f64,
    max_retx: u32,
    src: usize,
    gated: usize,
) -> noc_sim::RunReport {
    let cfg = SimConfig {
        bypass_enabled: true,
        channel_capacity: 8,
        seed: 7,
        max_retx,
        ..SimConfig::default()
    };
    let records: Vec<TraceRecord> = (0..400)
        .map(|i| TraceRecord { cycle: 100 + 40 * i, src, dest: 7, size_flits: 4 })
        .collect();
    let spec = WorkloadSpec::replay("gated-receiver", records, 64).expect("records fit the mesh");
    let mut net = Network::new(cfg, WorkloadSpec { window: 400, ..spec }, 0);
    let mut directives = [RouterDirective { gate: Some(false), scheme, relaxed: false }; 64];
    directives[gated].gate = Some(true);
    net.apply_directives(&directives);
    net.set_error_rate_override(Some(rate));
    assert!(net.run_cycles(2_000_000), "run must drain");
    assert!(net.stall().is_none());
    net.report()
}

/// The stats a traversal can move, in one comparable tuple: `(delivered,
/// dropped, corrected_bits, faulty_traversals, hop_retx_events,
/// retransmitted_flits, e2e_retx_packets, corrupted_packets, latency_sum)`.
fn traversal_stats(r: &noc_sim::RunReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    let s = &r.stats;
    (
        s.packets_delivered,
        s.packets_dropped,
        s.corrected_bits,
        s.faulty_traversals,
        s.hop_retx_events,
        s.retransmitted_flits,
        s.e2e_retx_packets,
        s.corrupted_packets,
        s.latency_sum,
    )
}

/// Asserts a run's traversal stats and its energy ledger (as the exact
/// `Debug` rendering, so every bit of the floats is compared).
fn assert_pinned(
    report: &noc_sim::RunReport,
    stats: (u64, u64, u64, u64, u64, u64, u64, u64, u64),
    power: &str,
) {
    assert_eq!(traversal_stats(report), stats);
    assert_eq!(format!("{:?}", report.power), power);
}

/// Gated eject, light corruption, the default hop budget (never reached):
/// the NI-side decode corrects most hits, NACKs the rest, and nothing is
/// dropped.
#[test]
fn gated_eject_decodes_corrects_and_nacks() {
    let report = gated_receiver_run(EccScheme::Secded, 2e-3, 16, 6, 7);
    assert_pinned(
        &report,
        (400, 0, 327, 378, 47, 47, 0, 3, 4188),
        "PowerReport { static_mw: 460.28637714159964, dynamic_mw: 1.4409583074051036, \
         exec_cycles: 16070 }",
    );
}

/// Gated eject, heavy corruption, hop budget 2: NACKs, budget escalation to
/// end-to-end recovery and accounted drops all fire.
#[test]
fn gated_eject_escalates_past_the_hop_budget_and_drops() {
    let report = gated_receiver_run(EccScheme::Secded, 2e-2, 2, 6, 7);
    assert_pinned(
        &report,
        (379, 21, 674, 3529, 1592, 2552, 240, 364, 11491),
        "PowerReport { static_mw: 460.276006388636, dynamic_mw: 3.3313408723747973, \
         exec_cycles: 16094 }",
    );
}

/// Gated eject without per-hop protection: no decode, no NACK; every flip
/// reaches the core as silent corruption.
#[test]
fn gated_eject_unprotected_corruption_reaches_the_core() {
    let report = gated_receiver_run(EccScheme::None, 2e-3, 16, 6, 7);
    assert_pinned(
        &report,
        (400, 0, 0, 332, 0, 0, 0, 254, 4000),
        "PowerReport { static_mw: 424.5985939036488, dynamic_mw: 1.2581456129433717, \
         exec_cycles: 16070 }",
    );
}

/// Gated transit: flips sampled on the link into gated router 6 ride the
/// still-encoded codeword through the bypass and decode (or NACK) at
/// powered router 7, together with that link's own flips.
#[test]
fn gated_transit_carries_flips_to_the_next_powered_decoder() {
    let report = gated_receiver_run(EccScheme::Secded, 2e-3, 16, 5, 6);
    assert_pinned(
        &report,
        (400, 0, 526, 768, 148, 148, 0, 22, 6680),
        "PowerReport { static_mw: 460.24910686890416, dynamic_mw: 2.8585966658372755, \
         exec_cycles: 16076 }",
    );
}

/// Gated transit under heavy corruption with hop budget 2: carried-in flips
/// push the powered decoder's NACK ladder into escalation and drops.
#[test]
fn gated_transit_escalates_at_the_powered_decoder() {
    let report = gated_receiver_run(EccScheme::Secded, 2e-2, 2, 5, 6);
    assert_pinned(
        &report,
        (346, 54, 393, 6459, 1991, 3103, 278, 346, 12125),
        "PowerReport { static_mw: 460.285232528055, dynamic_mw: 5.178029219769975, \
         exec_cycles: 16085 }",
    );
}

/// Gated transit without per-hop protection: flips go straight to the
/// flit's end-to-end count on both links.
#[test]
fn gated_transit_unprotected_flips_accumulate_end_to_end() {
    let report = gated_receiver_run(EccScheme::None, 2e-3, 16, 5, 6);
    assert_pinned(
        &report,
        (400, 0, 0, 687, 0, 0, 0, 350, 6400),
        "PowerReport { static_mw: 424.5439743164799, dynamic_mw: 2.515352077631255, \
         exec_cycles: 16076 }",
    );
}
