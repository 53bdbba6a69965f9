//! A study prints numbers only for runs that finished. Written against
//! commit `8a5cb03`, where `ablations` called the unchecked `run_experiment`
//! and printed two watchdog-aborted runs (`channel depth 4`, `channel depth
//! 2`) as `exec=… power=…` rows; the test states the invariant rather than
//! that deadlock, so it keeps passing once those rows finish.

use intellinoc::figures::{evaluate, Campaign, FIGURES};
use intellinoc::{run_experiment, Design, ExperimentConfig, RewardKind};
use noc_ecc::EccScheme;
use noc_sim::SimConfig;
use noc_traffic::ParsecBenchmark;

type Tweak = fn(&mut SimConfig);

#[test]
fn ablations_prints_no_metrics_for_a_run_that_did_not_finish() {
    let log = RewardKind::LogSpace;
    // The study's eight rows, rebuilt here: row tag, simulator tweak, reward.
    let rows: [(&str, Option<Tweak>, RewardKind); 8] = [
        ("full IntelliNoC", None, log),
        ("channel depth 4", Some(|c| c.channel_capacity = 4), log),
        ("channel depth 2", Some(|c| c.channel_capacity = 2), log),
        ("no bypass", Some(|c| c.bypass_enabled = false), log),
        ("always SECDED", Some(|c| c.default_scheme = EccScheme::Secded), log),
        ("always DECTED", Some(|c| c.default_scheme = EccScheme::Dected), log),
        ("always TECQED (t=3)", Some(|c| c.default_scheme = EccScheme::Tecqed), log),
        ("linear reward", None, RewardKind::Linear),
    ];
    let fig = FIGURES.iter().find(|f| f.name == "ablations").expect("ablations is a figure");
    let campaign = Campaign::default();
    let report = evaluate(&(fig.cells)(&campaign), 2).expect("engine");
    let mut table = Vec::new();
    fig.write(&campaign, &report, &mut table).expect("renders");
    let table = String::from_utf8(table).expect("utf8");
    for (tag, tweak, reward) in rows {
        let row = table
            .lines()
            .find(|l| l.starts_with(tag))
            .unwrap_or_else(|| panic!("no row for {tag}:\n{table}"));
        let workload = ParsecBenchmark::Canneal.workload(150);
        let mut cfg = ExperimentConfig::new(Design::IntelliNoc, workload).with_seed(5);
        cfg.tweak = tweak;
        cfg.reward = reward;
        if !run_experiment(cfg).finished {
            assert!(!row.contains("exec="), "`{tag}` did not finish, yet its row reads: {row}");
        }
    }
}
