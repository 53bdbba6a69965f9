//! Cross-crate integration tests for `noc-journey`: sampled per-packet
//! journey tracing must agree with latency attribution component for
//! component, stay byte-deterministic, and never perturb the cycle domain.

use intellinoc::{
    run_experiment, run_experiment_instrumented, Design, ExperimentConfig, TelemetryArtifacts,
};
use noc_fault::HardFaultScenario;
use noc_sim::{journey_sampled, JourneyCause, JourneyLog};
use noc_telemetry::LatencyBreakdown;
use noc_traffic::{ReqReplySpec, WorkloadSpec};

/// A fault campaign that exercises every journey span cause: a high error
/// rate forces hop NACKs (and e2e retransmissions on the CRC designs),
/// dead links force reroute detours.
fn faulty_config(design: Design, journeys_every: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.02, 40)).with_seed(71);
    cfg.error_rate_override = Some(2e-4);
    cfg.hard_faults = HardFaultScenario::dead_links(8, 8, 3, 71, 400);
    cfg.fault_aware_routing = true;
    cfg.max_cycles = 400_000;
    cfg.telemetry.attribution = true;
    cfg.telemetry.journeys_every = journeys_every;
    cfg
}

fn run_faulty(design: Design, journeys_every: u64) -> TelemetryArtifacts {
    let (outcome, _, artifacts) =
        run_experiment_instrumented(faulty_config(design, journeys_every));
    assert!(outcome.report.stats.packets_delivered > 0, "campaign must deliver");
    artifacts
}

#[test]
fn journey_spans_sum_to_attribution_components_under_faults() {
    // CP uses e2e CRC retransmission, SECDED hop NACKs; both reroute
    // around the dead links. With every packet traced, each journey's span
    // timeline sums to its latency, and the attribution breakdown is the
    // journeys' components summed, overall and per pair (each completion
    // also checks its trail against the engine's counters in debug builds).
    for design in [Design::Secded, Design::Cp] {
        let artifacts = run_faulty(design, 1);
        let log = artifacts.journeys.as_ref().expect("journeys on");
        let att = artifacts.attribution.as_ref().expect("attribution on");
        assert!(!log.packets.is_empty());
        let mut summed = LatencyBreakdown::default();
        let mut retx_seen = false;
        for j in &log.packets {
            let c = j.components();
            assert_eq!(c.total(), j.latency, "packet {} ({})", j.packet, design.label());
            retx_seen |= c.retransmission > 0;
            summed.record(j.src, j.dest, j.latency, &c);
        }
        assert_eq!(
            format!("{:?}", att.breakdown),
            format!("{summed:?}"),
            "journey spans vs attribution ({})",
            design.label()
        );
        assert!(retx_seen, "fault campaign must exercise retransmission ({})", design.label());
        // Detours happened and left their markers.
        let reroutes = log
            .packets
            .iter()
            .flat_map(|p| &p.spans)
            .filter(|s| s.cause == JourneyCause::Reroute)
            .count();
        assert!(reroutes > 0, "dead links must leave reroute markers ({})", design.label());
    }
}

#[test]
fn tracing_never_moves_the_cycle_domain() {
    // Same seed, tracing off / every packet / 1-in-7: the cycle-domain
    // report is byte-identical (tracing is observation only).
    let base = run_experiment(faulty_config(Design::Secded, 0));
    let baseline = serde_json::to_string(&base.report).expect("report serializes");
    for every in [1u64, 7] {
        let traced = run_experiment(faulty_config(Design::Secded, every));
        let got = serde_json::to_string(&traced.report).expect("report serializes");
        assert_eq!(baseline, got, "journeys_every={every} moved the report");
    }
}

#[test]
fn journey_artifacts_are_byte_deterministic_and_sampling_is_seeded() {
    let a = run_faulty(Design::Secded, 4);
    let b = run_faulty(Design::Secded, 4);
    let log_a = a.journeys.expect("journeys on");
    let log_b = b.journeys.expect("journeys on");
    assert_eq!(log_a.to_jsonl(), log_b.to_jsonl(), "journey JSONL must be byte-identical");
    assert_eq!(log_a.tail_report(5), log_b.tail_report(5), "tail report must be byte-identical");
    // The sampled set is exactly the seeded-hash predicate, so any
    // execution (serial, parallel, resumed) reproduces it.
    for p in &log_a.packets {
        assert!(journey_sampled(71, p.packet, 4), "packet {} not in the seeded sample", p.packet);
    }
    // Round trip through the JSONL artifact.
    let parsed = JourneyLog::from_jsonl(&log_a.to_jsonl()).expect("parses");
    assert_eq!(parsed, log_a);
}

#[test]
fn closed_loop_journeys_carry_transaction_legs() {
    let workload = WorkloadSpec::reqreply(0.02, 30, ReqReplySpec::default());
    let mut cfg = ExperimentConfig::new(Design::Secded, workload).with_seed(5);
    cfg.max_cycles = 400_000;
    cfg.telemetry.journeys_every = 1;
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    let log = artifacts.journeys.expect("journeys on");
    assert!(outcome.report.txn.is_some(), "closed loop must produce a txn summary");
    assert!(!log.txns.is_empty(), "sampled transactions must be recorded");
    for t in &log.txns {
        // Legs tile the transaction lifetime end to end.
        let mut cursor = t.issued_at;
        for leg in &t.legs {
            assert_eq!(leg.start, cursor, "txn {} legs must tile", t.txn);
            assert!(leg.end >= leg.start);
            cursor = leg.end;
        }
        assert_eq!(cursor, t.resolved_at, "txn {} legs must reach resolution", t.txn);
    }
    // Request/reply packets are tagged with their transaction.
    assert!(log.packets.iter().any(|p| p.txn.is_some()), "reqreply packets must carry txn tags");
    let report = log.tail_report(3);
    assert!(report.contains("transaction"), "tail report must cover transactions:\n{report}");
}
