//! Integration tests for the telemetry layer: determinism of instrumented
//! runs, trace content, timeline sampling, and profiler accounting.

use intellinoc::{
    run_experiment, run_experiment_instrumented, Design, ExperimentConfig, TelemetryOptions,
};
use noc_sim::{Event, EventKind, TraceFilter, Tracer};
use noc_traffic::ParsecBenchmark;

fn instrumented_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(20))
        .with_seed(seed);
    cfg.telemetry = TelemetryOptions {
        trace: true,
        trace_filter: TraceFilter::default(),
        timeline: true,
        profile: true,
        ..TelemetryOptions::default()
    };
    cfg
}

/// Two runs with the same seed and config must produce byte-identical
/// reports and byte-identical event traces. Wall-clock profiler timings are
/// deliberately excluded: they are the only nondeterministic artifact.
#[test]
fn same_seed_runs_are_byte_identical() {
    let (o1, _, t1) = run_experiment_instrumented(instrumented_cfg(11));
    let (o2, _, t2) = run_experiment_instrumented(instrumented_cfg(11));

    let json1 = serde_json::to_string(&o1.report).expect("report serializes");
    let json2 = serde_json::to_string(&o2.report).expect("report serializes");
    assert_eq!(json1, json2, "RunReport JSON must be byte-identical");

    let trace1 = t1.tracer.expect("tracer installed").to_jsonl();
    let trace2 = t2.tracer.expect("tracer installed").to_jsonl();
    assert!(!trace1.is_empty(), "trace must not be empty");
    assert_eq!(trace1, trace2, "event traces must be byte-identical");

    let tl1 = serde_json::to_string(&t1.timeline.expect("timeline on")).unwrap();
    let tl2 = serde_json::to_string(&t2.timeline.expect("timeline on")).unwrap();
    assert_eq!(tl1, tl2, "timelines must be byte-identical");
}

/// Telemetry must not perturb the simulation: an instrumented run and a
/// plain run with the same seed report identical results.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let plain_cfg =
        ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(20))
            .with_seed(11);
    let plain = run_experiment(plain_cfg);
    let (instrumented, _, _) = run_experiment_instrumented(instrumented_cfg(11));

    let a = serde_json::to_string(&plain.report).unwrap();
    let b = serde_json::to_string(&instrumented.report).unwrap();
    assert_eq!(a, b, "instrumentation changed the simulation outcome");
}

#[test]
fn trace_contains_expected_event_kinds() {
    let (_, _, artifacts) = run_experiment_instrumented(instrumented_cfg(7));
    let tracer = artifacts.tracer.expect("tracer installed");
    assert!(tracer.count_of(EventKind::PacketInjected) > 0);
    assert!(tracer.count_of(EventKind::HopTraversed) > 0);
    assert!(tracer.count_of(EventKind::QUpdate) > 0, "RL design must emit Q updates");
    for e in tracer.events() {
        let line = {
            let mut s = String::new();
            e.write_jsonl(&mut s);
            s
        };
        assert!(line.starts_with("{\"kind\":"), "bad JSONL line: {line}");
    }
}

#[test]
fn trace_filter_restricts_router_and_kind() {
    let mut cfg = instrumented_cfg(9);
    cfg.telemetry.trace_filter = TraceFilter::parse("router=5,kind=hop", 64).expect("valid filter");
    let (_, _, artifacts) = run_experiment_instrumented(cfg);
    let tracer = artifacts.tracer.expect("tracer installed");
    assert!(!tracer.is_empty(), "router 5 must see traffic");
    for e in tracer.events() {
        assert_eq!(e.kind(), EventKind::HopTraversed);
        assert_eq!(e.router(), 5);
    }
}

#[test]
fn timeline_samples_every_control_step() {
    let (outcome, _, artifacts) = run_experiment_instrumented(instrumented_cfg(5));
    let timeline = artifacts.timeline.expect("timeline on");
    assert!(!timeline.samples.is_empty());
    // Cycles are strictly increasing and the last sample covers run end.
    let cycles: Vec<u64> = timeline.samples.iter().map(|s| s.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] < w[1]), "cycles not monotone: {cycles:?}");
    assert_eq!(*cycles.last().unwrap(), outcome.report.stats.cycles);
    for s in &timeline.samples {
        assert_eq!(s.tile_temps_c.len(), 64, "8x8 mesh has 64 tiles");
        assert!(s.dynamic_power_mw >= 0.0 && s.static_power_mw > 0.0);
    }
}

#[test]
fn profiler_counts_pipeline_phases_and_sections() {
    let (outcome, _, artifacts) = run_experiment_instrumented(instrumented_cfg(3));
    let prof = artifacts.profiler.expect("profiler on");
    // The span tree holds the pipeline counts: each switch grant (SA, and
    // the crossbar traversal it buys) is one `alloc.vc_sa` flit and each
    // downstream VC a head wins (VA) one allocation. Every delivered packet
    // traversed at least one hop, so grants exceed delivered packets.
    let grants = prof
        .span_tree()
        .iter()
        .filter(|(path, _)| path.last() == Some(&"alloc.vc_sa"))
        .fold((0, 0), |(f, a), (_, s)| (f + s.flits, a + s.allocs));
    assert!(grants.0 >= outcome.report.stats.packets_delivered, "{grants:?}");
    assert!(grants.1 > 0, "heads must win downstream VCs: {grants:?}");
    // One profiler: what the section timers used to report is now a span
    // row of the same name in the wall-clock table.
    let table = prof.table();
    for span in ["step_cycle", "fault.inject", "rl.decide"] {
        assert!(table.lines().any(|l| l.trim_start().starts_with(span)), "no {span} in:\n{table}");
    }
    assert!(!table.contains("ns/call"), "the flat section block is gone:\n{table}");
}

/// A run's events replayed into a capacity-1 ring: only the newest stays.
#[test]
fn bounded_ring_evicts_oldest() {
    let (_, _, artifacts) = run_experiment_instrumented(instrumented_cfg(2));
    let events: Vec<Event> =
        artifacts.tracer.expect("tracer installed").events().copied().collect();
    let mut tracer = Tracer::new(1, TraceFilter::default());
    for &e in &events {
        tracer.record(e);
    }
    assert_eq!(tracer.events().copied().collect::<Vec<_>>(), &events[events.len() - 1..]);
    assert!(tracer.evicted() > 0);
    assert_eq!(tracer.recorded(), tracer.len() as u64 + tracer.evicted());
}
