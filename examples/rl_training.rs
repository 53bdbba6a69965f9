//! RL training visibility: pre-train IntelliNoC's per-router agents on
//! blackscholes across episodes and watch the policy settle (Q-table
//! occupancy, mode mix, and end-to-end metrics per episode).
//!
//! Run with: `cargo run --release -p intellinoc --example rl_training`

use intellinoc::{
    intellinoc_rl_config, run_experiment_instrumented, ControlPolicy, Design, ExperimentConfig,
};
use noc_rl::QTable;
use noc_traffic::ParsecBenchmark;

fn main() {
    let episodes = 12;
    let mut tables: Option<Vec<QTable>> = None;
    println!(
        "{:>4} {:>9} {:>9} {:>8}  {:>6} {:>6} {:>6} {:>6} {:>6}",
        "ep", "exec_cyc", "latency", "qtab", "m0", "m1", "m2", "m3", "m4"
    );
    for ep in 0..episodes {
        let mut cfg =
            ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Blackscholes.workload(150))
                .with_seed(100 + ep);
        cfg.rl = intellinoc_rl_config();
        cfg.pretrained = tables.take();
        let (outcome, policy, _) = run_experiment_instrumented(cfg);
        let fr = outcome.mode_fractions();
        println!(
            "{:>4} {:>9} {:>9.1} {:>8.1}  {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            ep,
            outcome.report.exec_cycles,
            outcome.report.avg_latency(),
            outcome.mean_qtable_entries,
            fr[0],
            fr[1],
            fr[2],
            fr[3],
            fr[4],
        );
        tables = Some(match policy {
            ControlPolicy::Rl(rl) => rl.tables(),
            _ => unreachable!("IntelliNoC uses RL"),
        });
    }
    println!("\nThe mode mix should drift away from uniform exploration toward a");
    println!("policy dominated by modes 0/1 on this low-load training workload.");
}
