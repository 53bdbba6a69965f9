//! Resilience study: the deterministic hard-fault campaign across all five
//! designs — growing dead-link counts, a mid-run router failure, and
//! intermittently flapping links — with and without fault-aware rerouting.
//!
//! Usage: `cargo run --release --bin resilience [-- [--jobs N] [out.csv]]`
//! The grid executes on the `noc-runner` engine, so `--jobs N` parallelizes
//! the cells without changing a single byte of the output report. With an
//! output path the reroute-enabled grid is also written as CSV.

use intellinoc::{
    run_campaign_runner, CampaignConfig, CampaignRunReport, ChaosOptions, RunnerConfig, UnitSinks,
};

fn run_grid(cfg: &CampaignConfig, rcfg: &RunnerConfig) -> CampaignRunReport {
    run_campaign_runner(cfg, rcfg, &ChaosOptions::default(), UnitSinks::default())
        .expect("journal-less campaign")
}

fn print_grid(title: &str, report: &CampaignRunReport) {
    println!("{title}");
    println!(
        "{:<11} {:<20} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7} {:>10}",
        "design",
        "scenario",
        "deliver",
        "drop",
        "deliv%",
        "avg_lat",
        "p99_lat",
        "reroute",
        "stalled",
        "status"
    );
    for rec in &report.runner.records {
        let Some(r) = &rec.payload else {
            println!("{:<32} {:>10}", rec.key, rec.status.label());
            continue;
        };
        println!(
            "{:<11} {:<20} {:>8} {:>7} {:>9.3} {:>8.1} {:>8.0} {:>8} {:>7} {:>10}",
            r.design,
            r.scenario,
            r.delivered,
            r.dropped,
            100.0 * r.delivery_rate,
            r.avg_latency,
            r.p99_latency,
            r.reroutes,
            if r.stalled { "YES" } else { "-" },
            rec.status.label()
        );
    }
    println!();
}

fn main() {
    let mut jobs = 1usize;
    let mut csv_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let v = args.next().expect("--jobs needs a value");
            jobs = v.parse().expect("--jobs needs an integer");
        } else {
            csv_out = Some(a);
        }
    }
    let rcfg = RunnerConfig::serial().with_jobs(jobs);

    let cfg = CampaignConfig { ppn: 20, ..CampaignConfig::default() };
    let report = run_grid(&cfg, &rcfg);
    print_grid("fault-aware rerouting ON (up*/down* detours):", &report);
    let min = report.min_delivery_rate();

    if let Some(path) = csv_out {
        std::fs::write(&path, report.to_csv()).expect("write campaign CSV");
        println!("wrote {} rows to {path}\n", report.runner.records.len());
    }

    let no_reroute = CampaignConfig {
        fault_aware_routing: false,
        // XY traffic wedges against dead links; keep the cells cheap.
        dead_links: vec![0, 1, 2],
        router_fail_at: None,
        flapping: 0,
        ..cfg
    };
    print_grid(
        "fault-aware rerouting OFF (XY + drop/watchdog escalation):",
        &run_grid(&no_reroute, &rcfg),
    );

    println!("minimum delivery rate with rerouting: {min:.4}");
}
