//! Trace capture + replay (the Netrace-style offline workflow): capture a
//! PARSEC-like workload into a JSON-lines trace, write and re-read it, then
//! replay it on every design, each under its own controller, to compare them
//! on *identical* traffic.
//!
//! Run with: `cargo run --release -p intellinoc --example trace_roundtrip`

use intellinoc::{run_experiment, Design, ExperimentConfig};
use noc_traffic::{capture_trace, read_trace, write_trace, ParsecBenchmark, WorkloadSpec};

fn main() {
    // 1. Capture.
    let spec = ParsecBenchmark::Ferret.workload(60);
    let records = capture_trace(spec, 8, 8, 77, 10_000_000);
    println!("captured {} packet records from `ferret`", records.len());

    // 2. Serialize + parse back (what you would store on disk).
    let mut buf = Vec::new();
    write_trace(&mut buf, &records).expect("in-memory write cannot fail");
    let parsed = read_trace(std::io::BufReader::new(&buf[..])).expect("roundtrip");
    assert_eq!(parsed, records);
    println!("trace serialized to {} bytes of JSON-lines and parsed back", buf.len());

    // 3. Replay the identical trace on every design.
    let spec = WorkloadSpec::replay("ferret-trace", parsed, 64).expect("captured on the same mesh");
    println!(
        "\n{:<11} {:>10} {:>10} {:>10} {:>12}",
        "design", "exec_cyc", "avg_lat", "p99_lat", "power_mW"
    );
    for design in Design::ALL {
        let outcome = run_experiment(ExperimentConfig::new(design, spec.clone()).with_seed(77));
        assert!(outcome.finished, "{design}: replay must drain");
        let r = &outcome.report;
        println!(
            "{:<11} {:>10} {:>10.1} {:>10.0} {:>12.1}",
            design.label(),
            r.exec_cycles,
            r.avg_latency(),
            r.stats.latency_percentile(0.99),
            r.power.total_mw()
        );
    }
    println!("\nSame packets, same timestamps — differences are purely architectural.");
}
