//! Integration tests for the PR 5 metrics layer: live Prometheus
//! exposition must not perturb the simulation (same-seed byte-identity),
//! `serve`'s TCP endpoint serves the hub's latest snapshot, and the bench
//! record→compare pipeline gates regressions with CI-separated intervals.

use intellinoc::{
    compare_bench, run_experiment, run_experiment_instrumented, run_grid, BenchBaseline, BenchSpec,
    BenchWorkload, ChaosOptions, Daemon, Design, ExperimentConfig, GateOptions, GateVerdict,
    MetricsOptions, RunnerConfig, ServeConfig, TelemetryOptions, UnitSinks,
};
use noc_telemetry::{parse_exposition, MetricsHub};
use noc_traffic::ParsecBenchmark;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn metrics_cfg(seed: u64, hub: Arc<MetricsHub>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(20))
        .with_seed(seed);
    cfg.telemetry = TelemetryOptions {
        metrics: MetricsOptions { hub: Some(hub) },
        ..TelemetryOptions::default()
    };
    cfg
}

/// Acceptance criterion: a same-seed run with live exposition on must
/// produce a byte-identical simulation report to a plain run with it off.
/// Exposition is a pure read of sim state — publishing snapshots every
/// control step cannot perturb the simulation.
#[test]
fn exposition_on_vs_off_is_byte_identical() {
    let plain = run_experiment(
        ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(20))
            .with_seed(11),
    );
    let hub = Arc::new(MetricsHub::new());
    let (instrumented, _, _) = run_experiment_instrumented(metrics_cfg(11, hub.clone()));

    let a = serde_json::to_string(&plain.report).unwrap();
    let b = serde_json::to_string(&instrumented.report).unwrap();
    assert_eq!(a, b, "metrics exposition changed the simulation outcome");

    // The hub saw one snapshot per control step plus the closing one.
    assert!(hub.version() > 1, "hub must have received per-step snapshots");
}

/// The final exposition snapshot reflects the final network state: the
/// delivered-packet counter matches the report, every declared family
/// renders, and the text parses cleanly with design/workload labels.
#[test]
fn exposition_matches_the_final_report() {
    let hub = Arc::new(MetricsHub::new());
    let (outcome, _, _) = run_experiment_instrumented(metrics_cfg(3, hub.clone()));
    let text = hub.snapshot();

    let samples = parse_exposition(&text).expect("exposition parses");
    let delivered = samples
        .iter()
        .find(|s| {
            s.name == "noc_packets_total"
                && s.labels.iter().any(|(k, v)| k == "event" && v == "delivered")
        })
        .expect("delivered counter exposed");
    assert_eq!(delivered.value, outcome.report.stats.packets_delivered as f64);
    assert!(
        delivered.labels.iter().any(|(k, v)| k == "design" && v == "IntelliNoC"),
        "series must carry the design label: {:?}",
        delivered.labels
    );
    for family in ["noc_sim_cycle", "noc_packet_latency_cycles_bucket", "noc_power_mw"] {
        assert!(
            samples.iter().any(|s| s.name == family),
            "family `{family}` missing from exposition"
        );
    }
}

/// End-to-end live scrape of the one TCP endpoint, `serve`'s `GET
/// /metrics`: publish into an idle daemon's hub and scrape it with a raw
/// HTTP/1.0 GET. The response must carry the exact snapshot bytes, and
/// serving must not consume or mutate hub state.
#[test]
fn tcp_endpoint_serves_the_latest_snapshot() {
    let state_dir = std::env::temp_dir().join(format!("intellinoc-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let cfg = ServeConfig { state_dir: state_dir.clone(), ..ServeConfig::default() };
    let daemon = Daemon::start(cfg).expect("start an idle daemon");
    let (hub, addr) = (daemon.hub(), daemon.local_addr());
    hub.publish("# TYPE noc_sim_cycle gauge\nnoc_sim_cycle 41\n".to_owned());

    for expected_cycle in ["41", "42"] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "bad status: {response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        assert_eq!(body, hub.snapshot(), "served body must be the snapshot verbatim");
        assert!(body.contains(&format!("noc_sim_cycle {expected_cycle}")));
        // Second iteration scrapes a fresh publish: latest snapshot wins.
        hub.publish("# TYPE noc_sim_cycle gauge\nnoc_sim_cycle 42\n".to_owned());
    }
    daemon.shutdown(std::time::Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Three seeds: at two, t(0.975, 1) = 12.7 makes the interval wider than
/// the forced +25 %.
fn tiny_spec() -> BenchSpec {
    BenchSpec {
        designs: vec![Design::Secded],
        rates: vec![BenchWorkload::Rate(0.02)],
        seeds: 3,
        ppn: 4,
        master_seed: 21,
        reqreply: None,
    }
}

/// The tiny grid as `bench record` runs it, folded into a baseline.
fn record() -> BenchBaseline {
    let (spec, rcfg, chaos) = (tiny_spec(), RunnerConfig::default(), ChaosOptions::default());
    let report = run_grid(&spec.cells(), &rcfg, &chaos, UnitSinks::default()).expect("run grid");
    BenchBaseline::from_report("it", &spec, &report).expect("fold baseline")
}

/// Acceptance criterion: `bench record` then self-`compare` passes (exit 0
/// semantics — deterministic seeds make the fresh means exactly equal), and
/// the baseline JSON round-trips through its canonical file format.
#[test]
fn bench_record_then_self_compare_passes() {
    let base = record();

    let json = base.to_json().expect("serialize");
    let reread = BenchBaseline::from_json(&json).expect("parse baseline file");
    assert_eq!(reread.spec, base.spec);

    let fresh = record();
    let cmp = compare_bench(&reread, &fresh, &GateOptions::default()).expect("compare");
    assert!(!cmp.has_regressions(), "self-compare must pass:\n{}", cmp.table());
    assert!(cmp.rows.iter().all(|r| r.verdict == GateVerdict::Pass));
}

/// Acceptance criterion: `--force-regress` perturbs the fresh latency means
/// past the confidence intervals, so the comparison reports regressions
/// (exit 2 semantics).
#[test]
fn bench_force_regress_flags_regressions() {
    let (base, fresh) = (record(), record());

    let opts = GateOptions { force_regress: true };
    let cmp = compare_bench(&base, &fresh, &opts).expect("compare");
    assert!(cmp.has_regressions(), "forced regression must be flagged:\n{}", cmp.table());
    assert!(cmp
        .rows
        .iter()
        .any(|r| r.metric == "avg_latency" && r.verdict == GateVerdict::Regressed));
}
