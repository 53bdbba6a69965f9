//! Integration tests for `noc-prof`: span profiling must never perturb the
//! simulation, cycle-domain span artifacts must be deterministic (including
//! across worker counts), and the flamegraph must decompose `step_cycle`
//! into its pipeline sub-spans.

use intellinoc::{
    run_campaign_runner, run_experiment_instrumented, CampaignConfig, ChaosOptions, Design,
    ExperimentConfig, RunnerConfig, TelemetryOptions, UnitSinks,
};
use noc_sim::Profiler;
use noc_traffic::{ParsecBenchmark, WorkloadSpec};
use std::sync::Mutex;

/// Unit sinks feeding only the fleet profiler.
fn profiled(sink: &Mutex<Profiler>) -> UnitSinks<'_> {
    UnitSinks { prof: Some(sink), journeys: None }
}

fn tiny_campaign() -> CampaignConfig {
    CampaignConfig {
        rate: 0.01,
        ppn: 4,
        seed: 3,
        dead_links: vec![0, 1],
        router_fail_at: None,
        flapping: 0,
        fault_aware_routing: true,
        max_cycles: 60_000,
        reqreply: None,
    }
}

/// The tentpole invariant: a campaign run with span profiling on produces a
/// byte-identical report to the same campaign with profiling off. Profiling
/// reads cycle-domain state and wall clocks; it never feeds back.
#[test]
fn profiling_on_off_campaign_reports_are_byte_identical() {
    let cfg = tiny_campaign();
    let rcfg = RunnerConfig::serial();
    let chaos = ChaosOptions::default();

    let plain =
        run_campaign_runner(&cfg, &rcfg, &chaos, UnitSinks::default()).expect("plain campaign");
    let sink = Mutex::new(Profiler::new());
    let with_prof =
        run_campaign_runner(&cfg, &rcfg, &chaos, profiled(&sink)).expect("profiled campaign");

    let a = serde_json::to_string(&plain).expect("report serializes");
    let b = serde_json::to_string(&with_prof).expect("report serializes");
    assert_eq!(a, b, "span profiling changed the campaign report");

    let prof = sink.into_inner().unwrap();
    assert!(!prof.span_tree().is_empty(), "profiled campaign must collect spans");
}

/// Fleet merge is order-independent: a 2-worker profiled campaign produces
/// the same cycle-domain span table as the serial one, even though workers
/// merge their trees in nondeterministic completion order.
#[test]
fn parallel_profile_merge_matches_serial() {
    let cfg = tiny_campaign();
    let chaos = ChaosOptions::default();

    let serial_sink = Mutex::new(Profiler::new());
    run_campaign_runner(&cfg, &RunnerConfig::serial(), &chaos, profiled(&serial_sink))
        .expect("serial campaign");

    let par_sink = Mutex::new(Profiler::new());
    let rcfg = RunnerConfig { jobs: 2, ..RunnerConfig::serial() };
    run_campaign_runner(&cfg, &rcfg, &chaos, profiled(&par_sink)).expect("parallel campaign");

    let serial = serial_sink.into_inner().unwrap();
    let parallel = par_sink.into_inner().unwrap();
    assert_eq!(
        serial.span_tree().tree_table(),
        parallel.span_tree().tree_table(),
        "cycle-domain span table must not depend on worker count"
    );
}

/// The `step_cycle` decomposition: the profiled tree must break the cycle
/// loop into at least 8 distinct sub-spans (allocation, link traversal,
/// ECC, ejection, fault injection, power gating, injection, ...) and the
/// collapsed-stack flamegraph must be well-formed `frames weight` lines.
#[test]
fn flamegraph_decomposes_step_cycle_into_subspans() {
    let sink = Mutex::new(Profiler::new());
    let cfg = ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(20))
        .with_seed(11);
    profiled(&sink).run(cfg, "flame/IntelliNoC");

    let prof = sink.into_inner().unwrap();
    let tree = prof.span_tree();
    let subspans: Vec<String> = tree
        .iter()
        .filter(|(path, _)| path.len() >= 2 && path[0] == "step_cycle")
        .map(|(path, _)| path.join(";"))
        .collect();
    assert!(
        subspans.len() >= 8,
        "expected >= 8 distinct step_cycle sub-spans, got {}: {subspans:?}",
        subspans.len()
    );

    let flame = tree.flamegraph();
    assert!(!flame.is_empty(), "flamegraph must not be empty");
    for line in flame.lines() {
        let (frames, weight) = line.rsplit_once(' ').expect("line is `frames weight`");
        assert!(!frames.is_empty(), "empty frame stack in {line:?}");
        assert!(frames.split(';').all(|f| !f.is_empty()), "empty frame in {line:?}");
        weight.parse::<u128>().unwrap_or_else(|_| panic!("bad weight in {line:?}"));
    }
    assert!(
        flame.lines().filter(|l| l.starts_with("step_cycle;")).count() >= 8,
        "flamegraph must carry the step_cycle decomposition"
    );
}

/// Same seed, two profiled runs: the cycle-domain tree table and the
/// exposition are byte-identical (wall-clock nanos are the only
/// nondeterministic dimension, and they live elsewhere). The span counters
/// render in the table only, not in the exposition.
#[test]
fn cycle_domain_span_artifacts_are_deterministic() {
    let run = || {
        let mut cfg =
            ExperimentConfig::new(Design::IntelliNoc, WorkloadSpec::uniform(0.02, 10)).with_seed(7);
        cfg.telemetry = TelemetryOptions {
            profile: true,
            metrics: intellinoc::MetricsOptions {
                hub: Some(std::sync::Arc::new(noc_sim::MetricsHub::new())),
                file: None,
            },
            ..TelemetryOptions::default()
        };
        let (_, _, artifacts) = run_experiment_instrumented(cfg);
        let prof = artifacts.profiler.expect("profiler artifact present");
        let expo = artifacts.exposition.expect("exposition artifact present");
        (prof.span_tree().tree_table(), expo)
    };
    let (table1, expo1) = run();
    let (table2, expo2) = run();
    assert_eq!(table1, table2, "cycle-domain span table must be deterministic");
    assert_eq!(expo1, expo2, "deterministic exposition must be byte-identical");
    assert!(table1.contains("step_cycle"), "{table1}");
    assert!(expo1.contains("noc_packets_total"), "the exposition carries the network families");
    assert!(!expo1.contains("noc_prof_"), "no span family in the exposition");
}
