//! Integration tests for the `noc-blackbox` flight recorder: post-mortem
//! bundle dumps from the execution engine for every death cause, render
//! determinism, the recorder's zero-perturbation guarantee, and alert rules
//! firing end-to-end (structured events and `noc_alert_*` metrics). The
//! CLI's critical-alert bundle dump is tested through the binary, in
//! `crates/cli/tests/blackbox.rs`.

use intellinoc::{
    run_experiment_instrumented, run_grid, run_units, CampaignConfig, CampaignRunReport,
    ChaosOptions, Design, ExperimentConfig, MetricsOptions, RunStatus, RunnerConfig,
    TelemetryOptions, TimeoutReport, UnitCtx, UnitSinks, UnitVerdict,
};
use noc_sim::{
    parse_bundle, parse_rules, render_report, AlertEdge, BundleCause, BundleHead, Event,
    MetricsHub, Network, ProbeConfig, Profiler, SimConfig, StallReport, TraceFilter, Tracer,
};
use noc_traffic::{ParsecBenchmark, WorkloadSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// FNV-1a, 64 bit: the digest the bundle pins are stated in.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("intellinoc-blackbox-integration").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bundle_files(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .filter(|n| n.ends_with(".jsonl"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Every death cause the execution engine knows — deadline timeout, stall
/// watchdog, panic, fatal failure — leaves a post-mortem bundle on disk
/// plus a `postmortem-dumped` runner event; healthy units leave nothing.
/// Each bundle parses and renders to byte-identical markdown twice.
#[test]
fn dying_units_dump_bundles_for_every_cause() {
    let dir = temp_dir("causes");
    let cfg = RunnerConfig { blackbox: Some(dir.clone()), ..RunnerConfig::serial() };
    let keys: Vec<String> =
        ["bb/timeout", "bb/stall", "bb/panic", "bb/fatal", "bb/ok"].map(String::from).to_vec();
    let exec = |ctx: &UnitCtx| -> UnitVerdict<u64> {
        // Feed the unit's recorder so the bundle has an event tail.
        if let Some(rec) = &ctx.recorder {
            let mut ring = Tracer::new(1, TraceFilter::all());
            ring.record(Event::PacketInjected { cycle: 41, router: 7, packet: 1, dest: 12 });
            rec.lock().unwrap().copy_event_tail(&ring);
        }
        match ctx.key {
            k if k.ends_with("timeout") => UnitVerdict::TimedOut {
                partial: None,
                report: TimeoutReport {
                    deadline_cycles: 64,
                    cycles_run: 64,
                    in_flight: 3,
                    stall: None,
                },
            },
            k if k.ends_with("stall") => UnitVerdict::TimedOut {
                partial: None,
                report: TimeoutReport {
                    deadline_cycles: 64,
                    cycles_run: 50,
                    in_flight: 2,
                    stall: Some(StallReport {
                        cycle: 50,
                        window: 25,
                        in_flight: 2,
                        blocked: vec!["flit 9 at router 3".to_owned()],
                        dump: "r3: blocked".to_owned(),
                    }),
                },
            },
            k if k.ends_with("panic") => panic!("forced crash for the recorder"),
            k if k.ends_with("fatal") => UnitVerdict::Fatal("unfixable config".to_owned()),
            _ => UnitVerdict::Ok(ctx.seed),
        }
    };
    let report = run_units(5, &keys, &cfg, &ChaosOptions::default(), exec).unwrap();

    // One bundle per dying unit, none for the healthy one.
    assert_eq!(
        bundle_files(&dir),
        vec![
            "postmortem-bb_fatal.jsonl",
            "postmortem-bb_panic.jsonl",
            "postmortem-bb_stall.jsonl",
            "postmortem-bb_timeout.jsonl",
        ]
    );

    // Each dying unit's record carries the cause that triggered its dump.
    let mut dumped: Vec<(String, &str)> = report
        .records
        .iter()
        .filter_map(|r| r.bundle.as_ref().map(|(cause, _)| (r.key.clone(), cause.label())))
        .collect();
    dumped.sort();
    assert_eq!(
        dumped,
        vec![
            ("bb/fatal".to_owned(), "fatal"),
            ("bb/panic".to_owned(), "panic"),
            ("bb/stall".to_owned(), "stall"),
            ("bb/timeout".to_owned(), "timeout"),
        ]
    );

    // Every bundle parses, and rendering is a pure function of the bytes:
    // two renders are byte-identical and name the cause and key.
    for name in bundle_files(&dir) {
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let bundle = parse_bundle(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let r1 = render_report(&bundle);
        let r2 = render_report(&parse_bundle(&text).unwrap());
        assert_eq!(r1, r2, "{name}: render must be byte-deterministic");
        assert!(r1.starts_with("# Post-mortem:"), "{name}: {r1}");
        assert!(r1.contains("bb/"), "{name}: report must name the unit key");
    }
}

/// A unit that panics with a live `Network` — built on the recorder the
/// runner hands it, profiled and journey-traced, stepped 300 cycles —
/// hands the probe's tail over as the network unwinds, so the `panic`
/// bundle on disk holds the event tail, the span table and the slowest
/// journeys. (A `--force-panic` unit panics before any network exists; its
/// bundle holds a head and counters only.)
#[test]
fn a_unit_that_panics_mid_run_bundles_events_spans_and_journeys() {
    let dir = temp_dir("mid-run-panic");
    let cfg = RunnerConfig { blackbox: Some(dir.clone()), ..RunnerConfig::serial() };
    let keys = vec!["bb/mid-run".to_owned()];
    let exec = |ctx: &UnitCtx| -> UnitVerdict<u64> {
        let workload = WorkloadSpec::uniform(0.05, 400);
        let mut net = Network::new(SimConfig::default(), workload, ctx.seed);
        net.install_probe(ProbeConfig {
            profiler: Some(Profiler::new()),
            blackbox: ctx.recorder.clone(),
            journeys: Some((ctx.seed, 1)),
            ..ProbeConfig::default()
        });
        net.run_cycles(300);
        panic!("the unit dies at cycle {}", net.now());
    };
    let report = run_units(7, &keys, &cfg, &ChaosOptions::default(), exec).unwrap();
    assert_eq!(report.records[0].status, RunStatus::Failed);
    assert_eq!(bundle_files(&dir), ["postmortem-bb_mid-run.jsonl"]);
    let text = std::fs::read_to_string(dir.join("postmortem-bb_mid-run.jsonl")).unwrap();
    let bundle = parse_bundle(&text).expect("bundle parses");
    assert_eq!(bundle.cause, "panic");
    assert!(bundle.detail.contains("the unit dies at cycle 300"), "{}", bundle.detail);
    assert!(text.lines().any(|l| l.starts_with("{\"record\":\"event\"")), "no event lines");
    assert!(!bundle.events.is_empty(), "no event tail");
    let spans = bundle.spans_table.expect("the spans record");
    assert!(spans.lines().any(|l| l.trim_start().starts_with("step_cycle ")), "{spans}");
    assert!(!bundle.journeys.is_empty(), "no journeys");
    assert!(bundle.counters.journeys_recorded > 0, "{:?}", bundle.counters);
}

/// The flight recorder must not perturb the simulation: the same campaign
/// with and without the black box produces byte-identical merged reports,
/// and a clean grid dumps no bundles at all.
#[test]
fn campaign_reports_identical_with_recorder_on_and_off() {
    let cfg = CampaignConfig {
        rate: 0.01,
        ppn: 4,
        seed: 3,
        dead_links: vec![0, 1],
        router_fail_at: None,
        flapping: 0,
        fault_aware_routing: true,
        max_cycles: 60_000,
        reqreply: None,
    };
    let campaign = |rcfg: &RunnerConfig| {
        let runner =
            run_grid(&cfg.cells(), rcfg, &ChaosOptions::default(), UnitSinks::default()).unwrap();
        CampaignRunReport { config: cfg.clone(), runner }
    };
    let plain = campaign(&RunnerConfig::serial());
    assert!(plain.runner.is_clean());

    let dir = temp_dir("clean-campaign");
    let recorded =
        campaign(&RunnerConfig { blackbox: Some(dir.clone()), ..RunnerConfig::serial() });
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&recorded).unwrap(),
        "the flight recorder changed the merged campaign report"
    );
    assert_eq!(plain.to_csv(), recorded.to_csv());
    assert!(bundle_files(&dir).is_empty(), "a clean grid must not dump bundles");
}

/// One timeline sample per control step, whoever consumes it: the recorder's
/// ring and the run timeline hold the same samples (deltas included — they
/// share one baseline), and each is unchanged by the other being on. The RL
/// design with tracing on keeps the mode-histogram deltas live.
#[test]
fn recorder_and_timeline_hold_the_same_samples() {
    let run = |timeline: bool, recorder: bool| {
        let mut cfg =
            ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(12))
                .with_seed(5)
                .with_time_step(100);
        let bb = recorder.then(|| noc_sim::shared_recorder(1 << 12));
        cfg.telemetry = TelemetryOptions {
            timeline,
            blackbox: bb.clone(),
            profile: true,
            trace: true,
            ..TelemetryOptions::default()
        };
        let (_, _, artifacts) = run_experiment_instrumented(cfg);
        let ring = bb.map(|bb| {
            let rec = bb.lock().unwrap();
            let head = BundleHead {
                cause: BundleCause::Timeout,
                key: "k".into(),
                seed: 5,
                cycle: rec.last_cycle(),
                detail: String::new(),
            };
            (rec.timeline().iter().cloned().collect::<Vec<_>>(), rec.bundle(&head, &[]))
        });
        (artifacts.timeline.map(|t| t.samples), ring)
    };
    let (both_tl, both_ring) = run(true, true);
    let (only_tl, _) = run(true, false);
    let (_, only_ring) = run(false, true);
    let both_tl = both_tl.expect("timeline on");
    let (ring, bundle) = both_ring.expect("recorder on");
    assert!(both_tl.len() > 4, "want several control steps, got {}", both_tl.len());
    assert!(both_tl.iter().any(|s| s.mode_histogram.iter().sum::<u64>() > 0), "modes move");
    assert_eq!(ring, both_tl, "recorder ring vs run timeline");
    assert_eq!(only_tl.expect("timeline on"), both_tl, "timeline alone vs with the recorder");
    let (ring_alone, bundle_alone) = only_ring.expect("recorder on");
    assert_eq!(ring_alone, both_tl, "recorder alone vs with the timeline");
    assert_eq!(bundle_alone, bundle, "bundle bytes");
    assert!(bundle.contains("\"record\":\"spans\""), "profiled runs snapshot the span table");
}

/// A profiled, journey-traced run that the cycle budget cuts off with
/// packets in flight: its bundle's `counters` line and `spans` record, byte
/// for byte. The budget stops the run between cycles, so no span is open,
/// and the table is the returned profiler's cycle-domain table.
#[test]
fn cut_off_profiled_run_pins_the_bundle_counters_and_spans() {
    let recorder = noc_sim::shared_recorder(8);
    let workload = WorkloadSpec::uniform(0.05, 400);
    let mut cfg =
        ExperimentConfig { max_cycles: 3_000, ..ExperimentConfig::new(Design::Secded, workload) }
            .with_seed(5);
    cfg.telemetry = TelemetryOptions {
        profile: true,
        journeys_every: 1,
        blackbox: Some(recorder.clone()),
        ..TelemetryOptions::default()
    };
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    assert!(!outcome.finished, "the cycle budget cuts the run off");
    let rec = recorder.lock().unwrap();
    let head = BundleHead {
        cause: BundleCause::Timeout,
        key: "spans-pin".into(),
        seed: 5,
        cycle: rec.last_cycle(),
        detail: String::new(),
    };
    let bundle = rec.bundle(&head, &[]);
    let line = |record: &str| {
        let start = format!("{{\"record\":\"{record}\"");
        bundle.lines().find(|l| l.starts_with(&start)).expect(record).to_owned()
    };
    let parsed = parse_bundle(&bundle).expect("bundle parses");
    assert!(parsed.open_spans.is_empty(), "{:?}", parsed.open_spans);
    let prof = artifacts.profiler.expect("profiled");
    assert_eq!(parsed.spans_table, Some(prof.span_tree().tree_table()));
    assert_eq!(fnv1a(&line("counters")), 0x237a_2739_27fa_1497);
    assert_eq!(fnv1a(&line("spans")), 0x07c9_44d6_5bd0_52ed);
}

/// Alert rules evaluated inside the instrumented run: a breached rule emits
/// a structured firing event, the `noc_alert_*` families join the final
/// exposition, an unbreached rule stays silent — and the evaluation leaves
/// the simulation outcome untouched.
#[test]
fn alert_rules_fire_end_to_end_without_perturbing_the_run() {
    let workload = ParsecBenchmark::Canneal.workload(10);
    let mut cfg = ExperimentConfig::new(Design::Secded, workload.clone()).with_seed(11);
    let hub = Arc::new(MetricsHub::new());
    cfg.telemetry = TelemetryOptions {
        alert_rules: parse_rules("noc_packets_total>10;noc_packets_total>1e15").unwrap(),
        metrics: MetricsOptions { hub: Some(hub.clone()) },
        ..TelemetryOptions::default()
    };
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);

    // The breached rule fired exactly once (firing edge, no resolve), the
    // absurd threshold never did.
    let firing: Vec<_> = artifacts
        .alerts
        .iter()
        .filter(|e| e.edge == AlertEdge::Firing)
        .map(|e| e.rule.clone())
        .collect();
    assert_eq!(firing, vec!["noc_packets_total>10"]);
    assert!(!artifacts.alerts.iter().any(|e| e.rule == "noc_packets_total>1e15"));
    assert!(!artifacts.alerts.iter().any(|e| e.edge == AlertEdge::Resolved));

    // The alert families are part of the hub's final snapshot.
    let expo = hub.snapshot();
    assert!(
        expo.contains("noc_alert_firing{rule=\"noc_packets_total>10\"} 1"),
        "missing firing gauge in:\n{expo}"
    );
    assert!(expo.contains("noc_alert_firing{rule=\"noc_packets_total>1e15\"} 0"));
    assert!(expo
        .contains("noc_alert_transitions_total{edge=\"firing\",rule=\"noc_packets_total>10\"} 1"));

    // Zero perturbation: the report equals a run without any alert rules.
    let plain_cfg = ExperimentConfig::new(Design::Secded, workload).with_seed(11);
    let (plain, _, _) = run_experiment_instrumented(plain_cfg);
    assert_eq!(
        serde_json::to_string(&plain.report).unwrap(),
        serde_json::to_string(&outcome.report).unwrap(),
        "alert evaluation changed the simulation outcome"
    );
}
