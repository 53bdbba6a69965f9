//! Trace capture + replay (the Netrace-style offline workflow): capture a
//! PARSEC-like workload into a JSON-lines trace, write and re-read it, then
//! replay it on two different designs to compare them on *identical*
//! traffic.
//!
//! Run with: `cargo run --release -p intellinoc --example trace_roundtrip`

use intellinoc::Design;
use noc_sim::Network;
use noc_traffic::{capture_trace, read_trace, write_trace, ParsecBenchmark, TraceReplay};

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

    // 3. Replay the identical trace on two designs.
    println!(
        "\n{:<11} {:>10} {:>10} {:>10} {:>12}",
        "design", "exec_cyc", "avg_lat", "p99_lat", "power_mW"
    );
    for design in [Design::Secded, Design::Cp] {
        let replay =
            TraceReplay::new("ferret-trace", &parsed, 64, 12).expect("captured on the same mesh");
        let mut cfg = design.sim_config();
        cfg.seed = 77;
        let mut net = Network::with_workload(cfg, Box::new(replay));
        let done = net.run_cycles(10_000_000);
        assert!(done, "replay must drain");
        let r = net.report();
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
