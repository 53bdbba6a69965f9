//! Integration tests for the `inspect` analysis layer through the
//! experiment harness: exact latency attribution, full spatial coverage,
//! RL decision reproduction, and byte-determinism of every rendered
//! artifact.

use intellinoc::{
    render_inspect_report, run_experiment_instrumented, ControlPolicy, Design, ExperimentConfig,
    ExperimentOutcome, OperationMode, TelemetryArtifacts, TelemetryOptions,
};
use noc_sim::link_stats_csv;
use noc_telemetry::LatencyBreakdown;
use noc_traffic::{ParsecBenchmark, WorkloadSpec};

fn inspect_cfg(design: Design, seed: u64) -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::new(design, ParsecBenchmark::Canneal.workload(15)).with_seed(seed);
    cfg.time_step = 500;
    cfg.telemetry = TelemetryOptions {
        attribution: true,
        decisions: design.uses_rl(),
        ..TelemetryOptions::default()
    };
    cfg
}

fn run_inspect(
    design: Design,
    seed: u64,
) -> (ExperimentOutcome, ControlPolicy, TelemetryArtifacts) {
    run_experiment_instrumented(inspect_cfg(design, seed))
}

/// Traces every packet's journey too: each journey's components must sum
/// to its latency, and the breakdown must be those components summed,
/// overall and per pair.
fn run_exact(mut cfg: ExperimentConfig) -> (ExperimentOutcome, LatencyBreakdown) {
    cfg.telemetry.journeys_every = 1;
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    let log = artifacts.journeys.expect("journeys enabled");
    let mut summed = LatencyBreakdown::default();
    for j in &log.packets {
        let c = j.components();
        assert_eq!(c.total(), j.latency, "packet {}: {c:?} != {}", j.packet, j.latency);
        summed.record(j.src, j.dest, j.latency, &c);
    }
    let b = artifacts.attribution.expect("attribution enabled").breakdown;
    assert_eq!(format!("{b:?}"), format!("{summed:?}"));
    (outcome, b)
}

/// The acceptance invariant: every packet's latency components sum to its
/// measured end-to-end latency, on the full IntelliNoC design (gating,
/// bypass, adaptive ECC all active).
#[test]
fn attribution_components_sum_to_e2e_latency() {
    let (outcome, b) = run_exact(inspect_cfg(Design::IntelliNoc, 11));
    assert_eq!(
        b.packets, outcome.report.stats.packets_delivered,
        "every delivered packet is attributed"
    );
    assert_eq!(
        b.latency_sum, outcome.report.stats.latency_sum,
        "attributed latency matches the simulator's own sum"
    );
}

/// Attribution stays exact when e2e CRC scraps deliveries (error-rate
/// override forces retransmissions).
#[test]
fn attribution_stays_exact_under_forced_errors() {
    let mut cfg = inspect_cfg(Design::IntelliNoc, 13);
    cfg.error_rate_override = Some(2e-4);
    let (outcome, _) = run_exact(cfg);
    assert!(
        outcome.report.stats.hop_retx_events + outcome.report.stats.e2e_retx_packets > 0,
        "2e-4 override must force some retransmission"
    );
}

/// Spatial acceptance: the link stats cover all 112 physical links of the
/// 8x8 mesh and the CSV renders one row per link.
#[test]
fn heatmaps_cover_all_112_links() {
    let (_, _, artifacts) = run_inspect(Design::IntelliNoc, 17);
    let att = artifacts.attribution.expect("attribution enabled");
    assert_eq!(att.links.len(), 112);
    let csv = link_stats_csv(&att.links);
    assert_eq!(csv.lines().count(), 113, "header + one row per link");
    assert!(csv.starts_with("a,b,flits,retx\n"));
    for grid in &att.grids {
        assert_eq!(grid.cells.len(), 64, "{} covers the whole mesh", grid.name);
        let csv = grid.to_csv();
        assert_eq!(csv.lines().count(), 8, "{} renders 8 rows", grid.name);
    }
}

/// RL acceptance: the decision log reproduces the controller's chosen
/// modes — action counts equal the outcome's mode histogram, and each
/// router's final logged action equals the policy's last mode.
#[test]
fn decision_log_reproduces_chosen_modes() {
    let (outcome, policy, artifacts) = run_inspect(Design::IntelliNoc, 19);
    let log = artifacts.decisions.expect("decision log enabled");
    assert!(!log.is_empty(), "the run must make control decisions");
    assert_eq!(
        log.action_counts(),
        outcome.mode_histogram,
        "decision log must reproduce the mode histogram"
    );
    let ControlPolicy::Rl(rl) = &policy else { panic!("IntelliNoC uses RL") };
    for (r, &mode) in rl.last_modes().iter().enumerate() {
        let last = log.records.iter().rev().find(|d| d.router == r as u32);
        let last = last.expect("every router decided at least once");
        assert_eq!(
            OperationMode::from_action(last.action as usize),
            mode,
            "router {r} final logged action disagrees with the controller"
        );
    }
    // One convergence sample per control step, each covering all routers.
    assert!(!log.convergence.is_empty());
    assert!(log.convergence.iter().all(|c| c.decisions == 64));
    let total: u64 = log.convergence.iter().map(|c| c.decisions).sum();
    assert_eq!(total, log.len() as u64);
}

/// Non-RL designs produce attribution but no decision log.
#[test]
fn static_designs_have_no_decision_log() {
    let (_, _, artifacts) = run_inspect(Design::Secded, 23);
    assert!(artifacts.attribution.is_some());
    assert!(artifacts.decisions.is_none());
}

/// Determinism acceptance: two identical runs render byte-identical
/// reports, decision JSONL, convergence CSV, and heatmap CSVs.
#[test]
fn inspect_artifacts_are_byte_identical_across_runs() {
    let (o1, _, a1) = run_inspect(Design::IntelliNoc, 29);
    let (o2, _, a2) = run_inspect(Design::IntelliNoc, 29);
    assert_eq!(
        render_inspect_report(&o1, &a1),
        render_inspect_report(&o2, &a2),
        "reports must be byte-identical"
    );
    let (d1, d2) = (a1.decisions.expect("log on"), a2.decisions.expect("log on"));
    assert_eq!(d1.to_jsonl(), d2.to_jsonl(), "decision JSONL must be byte-identical");
    assert_eq!(d1.convergence_csv(), d2.convergence_csv());
    let (t1, t2) = (a1.attribution.expect("att on"), a2.attribution.expect("att on"));
    assert_eq!(link_stats_csv(&t1.links), link_stats_csv(&t2.links));
    for (g1, g2) in t1.grids.iter().zip(&t2.grids) {
        assert_eq!(g1.to_csv(), g2.to_csv(), "{} grid must be byte-identical", g1.name);
    }
}

/// Attribution must not perturb the simulation: identical outcomes with
/// and without the analysis layer installed.
#[test]
fn attribution_does_not_perturb_the_simulation() {
    let plain =
        ExperimentConfig::new(Design::IntelliNoc, WorkloadSpec::uniform(0.02, 15)).with_seed(31);
    let (po, _, _) = run_experiment_instrumented(plain);
    let mut instrumented =
        ExperimentConfig::new(Design::IntelliNoc, WorkloadSpec::uniform(0.02, 15)).with_seed(31);
    instrumented.telemetry =
        TelemetryOptions { attribution: true, decisions: true, ..TelemetryOptions::default() };
    let (io, _, _) = run_experiment_instrumented(instrumented);
    let pj = serde_json::to_string(&po.report).expect("report serializes");
    let ij = serde_json::to_string(&io.report).expect("report serializes");
    assert_eq!(pj, ij, "attribution+decisions must not change the simulation");
    assert_eq!(po.mode_histogram, io.mode_histogram);
}
