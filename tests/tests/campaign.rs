//! Integration tests for the fault-campaign harness: cross-design
//! resilience acceptance and byte-level determinism of campaign reports.

use intellinoc::{
    run_experiment, run_grid, CampaignConfig, CampaignRunReport, ChaosOptions, Design,
    ExperimentConfig, RunnerConfig, UnitSinks,
};
use noc_sim::HardFaultScenario;
use noc_traffic::WorkloadSpec;

fn small_campaign(fault_aware: bool) -> CampaignConfig {
    CampaignConfig {
        rate: 0.02,
        ppn: 6,
        seed: 17,
        dead_links: vec![0, 2],
        router_fail_at: None,
        flapping: 1,
        fault_aware_routing: fault_aware,
        max_cycles: 200_000,
        reqreply: None,
    }
}

fn run_campaign(cfg: &CampaignConfig) -> CampaignRunReport {
    let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
    let runner = run_grid(&cfg.cells(), &rcfg, &chaos, UnitSinks::default())
        .expect("serial journal-less campaign cannot hit engine errors");
    CampaignRunReport { config: cfg.clone(), runner }
}

/// Same seed → byte-identical campaign reports, both JSON and CSV. This is
/// what makes campaign outputs diffable across code revisions.
#[test]
fn same_seed_campaigns_are_byte_identical() {
    let r1 = run_campaign(&small_campaign(true));
    let r2 = run_campaign(&small_campaign(true));
    let json1 = serde_json::to_string_pretty(&r1).expect("report serializes");
    let json2 = serde_json::to_string_pretty(&r2).expect("report serializes");
    assert_eq!(json1, json2, "campaign JSON must be byte-identical");
    assert_eq!(r1.to_csv(), r2.to_csv(), "campaign CSV must be byte-identical");
    assert!(r1.runner.records.iter().any(|rec| rec.payload.is_some()));
}

/// Acceptance: a single permanent link failure at t=0 on the 8×8 mesh
/// under uniform-random traffic → fault-aware rerouting delivers 100% of
/// packets for every one of the five designs.
#[test]
fn single_dead_link_full_delivery_for_all_designs() {
    let scenario = HardFaultScenario::dead_links(8, 8, 1, 23, 0);
    for design in Design::ALL {
        let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.02, 6)).with_seed(23);
        cfg.hard_faults = scenario.clone();
        cfg.fault_aware_routing = true;
        cfg.max_cycles = 500_000;
        let o = run_experiment(cfg);
        let s = &o.report.stats;
        assert!(o.report.stall.is_none(), "{}: watchdog fired", design.label());
        assert_eq!(s.packets_dropped, 0, "{}: dropped packets", design.label());
        assert_eq!(s.packets_delivered, s.packets_injected, "{}: lost packets", design.label());
        assert!(s.reroutes > 0, "{}: dead link must force detours", design.label());
    }
}

/// Acceptance: the same scenario with rerouting disabled terminates via the
/// drop/watchdog escalation (never a hang) for every design.
#[test]
fn single_dead_link_without_rerouting_terminates() {
    let scenario = HardFaultScenario::dead_links(8, 8, 1, 23, 0);
    for design in Design::ALL {
        let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.02, 6)).with_seed(23);
        cfg.hard_faults = scenario.clone();
        cfg.fault_aware_routing = false;
        cfg.max_cycles = 500_000;
        let o = run_experiment(cfg);
        let s = &o.report.stats;
        assert!(
            o.report.stall.is_some() || s.packets_dropped > 0,
            "{}: expected watchdog or drops, saw neither (delivered {}/{})",
            design.label(),
            s.packets_delivered,
            s.packets_injected
        );
        assert!(
            s.cycles < 500_000,
            "{}: run should end well before the cycle budget",
            design.label()
        );
    }
}

/// The no-reroute campaign still produces a complete, deterministic report
/// (degraded cells and all).
#[test]
fn no_reroute_campaign_completes() {
    let r1 = run_campaign(&small_campaign(false));
    let r2 = run_campaign(&small_campaign(false));
    assert_eq!(r1.to_csv(), r2.to_csv());
    // The fault-free cells are untouched by the routing policy switch.
    for (design, scenario, rec) in r1.rows() {
        let Some(o) = rec.payload.as_ref().filter(|_| scenario == "fault-free") else { continue };
        let s = &o.report.stats;
        assert_eq!(s.packets_delivered, s.packets_injected, "{design}: fault-free cell degraded");
    }
}
