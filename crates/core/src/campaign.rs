//! Deterministic fault-campaign harness.
//!
//! A campaign sweeps a family of seeded [`HardFaultScenario`]s — growing
//! numbers of dead links, a mid-run router failure, intermittently flapping
//! links — across all five comparison [`Design`]s and reports resilience
//! metrics per (design, scenario) cell: delivery rate, accounted drops,
//! degraded latency, detour (reroute) counts, retransmission pressure, and
//! whether the stall watchdog had to abort the run. Same seed → byte-identical
//! report, so campaigns are directly diffable across code revisions.
//!
//! Execution goes through the `noc-runner` engine ([`run_campaign_runner`]):
//! each (design, scenario) cell is one experiment unit with a stable run key
//! and a key-derived seed, so the grid can run on `jobs` worker threads,
//! survive panicking or hung cells, and resume from a journal — all while
//! producing merged reports byte-identical to a serial run. It is the one
//! way to run a campaign; fleet profiling and per-cell journey logs are the
//! [`UnitSinks`] argument, not separate entry points.

use crate::designs::Design;
use crate::experiment::{ExperimentConfig, UnitSinks};
use crate::runner::{run_units, ChaosOptions, RunnerConfig, RunnerReport, UnitCtx, UnitVerdict};
use noc_sim::HardFaultScenario;
use noc_traffic::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Campaign parameters: the workload, the scenario family, and the routing
/// policy under test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Uniform-random injection rate (packets/node/cycle).
    pub rate: f64,
    /// Packets per node.
    pub ppn: u64,
    /// Master seed: drives workload, transient faults, and scenario choice.
    pub seed: u64,
    /// Dead-link sweep: one scenario per entry, with that many fail-stop
    /// link failures at cycle 0.
    pub dead_links: Vec<usize>,
    /// If set, adds a scenario with one fail-stop router failure activating
    /// at this cycle (mid-run when nonzero).
    pub router_fail_at: Option<u64>,
    /// If nonzero, adds a scenario with this many intermittently flapping
    /// links (down 40 of every 200 cycles from cycle 0).
    pub flapping: usize,
    /// Whether the designs route around faults (up*/down* detours) or stay
    /// on plain XY and rely on the drop/watchdog escalation only.
    pub fault_aware_routing: bool,
    /// Per-run cycle budget.
    pub max_cycles: u64,
    /// Closed-loop request–reply protocol parameters: when set, every cell
    /// runs the closed-loop workload (with the conservation auditor armed)
    /// instead of open-loop uniform injection.
    pub reqreply: Option<noc_traffic::ReqReplySpec>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            rate: 0.02,
            ppn: 30,
            seed: 1,
            dead_links: vec![0, 1, 2, 4, 8],
            router_fail_at: Some(500),
            flapping: 2,
            fault_aware_routing: true,
            max_cycles: 400_000,
            reqreply: None,
        }
    }
}

/// One (design, scenario) cell of the campaign grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Design label (e.g. `IntelliNoC`).
    pub design: String,
    /// Scenario name (e.g. `dead-links-4`).
    pub scenario: String,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (accounted loss).
    pub dropped: u64,
    /// delivered / injected.
    pub delivery_rate: f64,
    /// Mean end-to-end latency (cycles).
    pub avg_latency: f64,
    /// 99th-percentile latency (cycles).
    pub p99_latency: f64,
    /// Fault-aware detour hops taken.
    pub reroutes: u64,
    /// Per-hop retransmission events.
    pub hop_retx: u64,
    /// End-to-end packet retries.
    pub e2e_retx: u64,
    /// Whether the stall watchdog aborted the run.
    pub stalled: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Extrapolated network MTTF in hours, if any router aged.
    pub mttf_hours: Option<f64>,
    /// Transactions that exhausted their retry budget (closed-loop cells
    /// only; `None` on open-loop cells).
    pub txn_failed: Option<u64>,
    /// Transactions shed by admission control (closed-loop cells only).
    pub txn_shed: Option<u64>,
    /// Conservation-auditor violation count (closed-loop cells only; any
    /// nonzero value fails the campaign).
    pub txn_violations: Option<u64>,
}

/// The seeded scenario family a [`CampaignConfig`] describes, as
/// `(name, scenario)` pairs in a fixed order.
pub fn campaign_scenarios(cfg: &CampaignConfig) -> Vec<(String, HardFaultScenario)> {
    const W: usize = 8;
    const H: usize = 8;
    let mut out = Vec::new();
    for &n in &cfg.dead_links {
        let name = if n == 0 { "fault-free".to_owned() } else { format!("dead-links-{n}") };
        out.push((name, HardFaultScenario::dead_links(W, H, n, cfg.seed, 0)));
    }
    if let Some(at) = cfg.router_fail_at {
        out.push((
            format!("router-fail-at-{at}"),
            HardFaultScenario::dead_routers(W, H, 1, cfg.seed, at),
        ));
    }
    if cfg.flapping > 0 {
        out.push((
            format!("flapping-links-{}", cfg.flapping),
            HardFaultScenario::flapping_links(W, H, cfg.flapping, cfg.seed, 0, 200, 40),
        ));
    }
    out
}

/// The campaign's canonical unit list: one `(run key, scenario index,
/// design)` triple per (scenario, design) cell, scenario-major. The key
/// embeds scenario, design, and injection rate, so the per-unit seed
/// ([`crate::derive_seed`] of the master seed and key) is stable across
/// execution orders and grid reshapes.
pub fn campaign_unit_keys(cfg: &CampaignConfig) -> Vec<(String, usize, Design)> {
    let scenarios = campaign_scenarios(cfg);
    let mut out = Vec::with_capacity(scenarios.len() * Design::ALL.len());
    for (si, (name, _)) in scenarios.iter().enumerate() {
        for design in Design::ALL {
            out.push((format!("campaign/{name}/{}/r{}", design.label(), cfg.rate), si, design));
        }
    }
    out
}

/// Runs one campaign cell as a runner unit ([`UnitSinks::run_unit`]) with
/// the key-derived seed and the campaign's cycle budget.
fn run_campaign_cell(
    cfg: &CampaignConfig,
    scenario_name: &str,
    scenario: &HardFaultScenario,
    design: Design,
    ctx: &UnitCtx,
    sinks: UnitSinks<'_>,
) -> UnitVerdict<CampaignRow> {
    let workload = match &cfg.reqreply {
        Some(rr) => WorkloadSpec::reqreply(cfg.rate, cfg.ppn, rr.clone()),
        None => WorkloadSpec::uniform(cfg.rate, cfg.ppn),
    };
    let ecfg = ExperimentConfig {
        max_cycles: cfg.max_cycles,
        hard_faults: scenario.clone(),
        fault_aware_routing: cfg.fault_aware_routing,
        ..ExperimentConfig::new(design, workload)
    }
    .with_seed(ctx.seed);
    sinks.run_unit(ecfg, ctx, |o| {
        let s = &o.report.stats;
        CampaignRow {
            design: design.label().to_owned(),
            scenario: scenario_name.to_owned(),
            injected: s.packets_injected,
            delivered: s.packets_delivered,
            dropped: s.packets_dropped,
            delivery_rate: s.delivery_ratio(),
            avg_latency: s.avg_latency(),
            p99_latency: s.latency_percentile(0.99),
            reroutes: s.reroutes,
            hop_retx: s.hop_retx_events,
            e2e_retx: s.e2e_retx_packets,
            stalled: o.report.stall.is_some(),
            cycles: s.cycles,
            mttf_hours: o.report.mttf_hours,
            txn_failed: o.report.txn.as_ref().map(|t| t.failed),
            txn_shed: o.report.txn.as_ref().map(|t| t.shed),
            txn_violations: o.report.txn.as_ref().map(|t| t.violations),
        }
    })
}

/// The full campaign grid as executed by the `noc-runner` engine: the
/// config plus one [`crate::UnitRecord`] per cell in canonical order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRunReport {
    /// The campaign parameters (embedded so a report is self-describing).
    pub config: CampaignConfig,
    /// Per-cell records (status + payload + diagnostics), scenario-major.
    pub runner: RunnerReport<CampaignRow>,
}

impl CampaignRunReport {
    /// Smallest delivery rate across cleanly completed cells.
    pub fn min_delivery_rate(&self) -> f64 {
        self.runner.ok_payloads().map(|r| r.delivery_rate).fold(1.0, f64::min)
    }

    /// `design/scenario` labels of cells whose conservation auditor found
    /// violations. Non-empty means leaked transactions — the campaign must
    /// fail loudly.
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        self.runner
            .records
            .iter()
            .filter_map(|rec| rec.payload.as_ref())
            .filter(|r| r.txn_violations.is_some_and(|v| v > 0))
            .map(|r| format!("{}/{}", r.design, r.scenario))
            .collect()
    }

    /// Renders every cell as CSV: the classic campaign columns plus
    /// `status` and `attempts`. Cells without a payload (failed, skipped)
    /// render empty metric fields. Fixed float formatting keeps equal
    /// campaigns byte-identical.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.runner.records.len() * 112 + 160);
        out.push_str(
            "design,scenario,injected,delivered,dropped,delivery_rate,\
             avg_latency,p99_latency,reroutes,hop_retx,e2e_retx,stalled,cycles,mttf_hours,\
             txn_failed,txn_shed,txn_violations,status,attempts\n",
        );
        for rec in &self.runner.records {
            match &rec.payload {
                Some(r) => {
                    let _ = write!(
                        out,
                        "{},{},{},{},{},{:.6},{:.3},{:.1},{},{},{},{},{},{},{},{},{}",
                        r.design,
                        r.scenario,
                        r.injected,
                        r.delivered,
                        r.dropped,
                        r.delivery_rate,
                        r.avg_latency,
                        r.p99_latency,
                        r.reroutes,
                        r.hop_retx,
                        r.e2e_retx,
                        r.stalled,
                        r.cycles,
                        r.mttf_hours.map_or_else(String::new, |h| format!("{h:.3e}")),
                        r.txn_failed.map_or_else(String::new, |v| v.to_string()),
                        r.txn_shed.map_or_else(String::new, |v| v.to_string()),
                        r.txn_violations.map_or_else(String::new, |v| v.to_string()),
                    );
                }
                None => {
                    // `campaign/<scenario>/<design>/r<rate>` → named columns.
                    let mut parts = rec.key.split('/');
                    let _ = parts.next();
                    let scenario = parts.next().unwrap_or("?");
                    let design = parts.next().unwrap_or("?");
                    let _ = write!(out, "{design},{scenario},,,,,,,,,,,,,,,");
                }
            }
            let _ = writeln!(out, ",{},{}", rec.status.label(), rec.attempts);
        }
        out
    }
}

/// Runs the campaign grid through the `noc-runner` execution engine.
///
/// Every scenario in [`campaign_scenarios`] order × every design in
/// [`Design::ALL`] order, executed per `rcfg` (worker count, deadline,
/// retry, journal/resume) with `chaos` failure injection for robustness
/// testing; every cell feeds `sinks`. Serial, parallel, and resumed
/// executions produce byte-identical reports for the same campaign config,
/// whatever the sinks.
///
/// # Errors
///
/// Propagates engine-level errors (journal mismatch or I/O); unit-level
/// failures are contained in the report instead.
pub fn run_campaign_runner(
    cfg: &CampaignConfig,
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    sinks: UnitSinks<'_>,
) -> Result<CampaignRunReport, String> {
    let scenarios = campaign_scenarios(cfg);
    let units = campaign_unit_keys(cfg);
    let keys: Vec<String> = units.iter().map(|(k, _, _)| k.clone()).collect();
    let runner = run_units(cfg.seed, &keys, rcfg, chaos, |ctx: &UnitCtx| {
        let (_, si, design) = units
            .iter()
            .find(|(k, _, _)| k == ctx.key)
            .expect("runner only executes supplied keys");
        let (name, scenario) = &scenarios[*si];
        run_campaign_cell(cfg, name, scenario, *design, ctx, sinks)
    })?;
    Ok(CampaignRunReport { config: cfg.clone(), runner })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
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

    #[test]
    fn scenario_family_order_and_names() {
        let cfg = CampaignConfig::default();
        let scenarios = campaign_scenarios(&cfg);
        let names: Vec<&str> = scenarios.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "fault-free",
                "dead-links-1",
                "dead-links-2",
                "dead-links-4",
                "dead-links-8",
                "router-fail-at-500",
                "flapping-links-2",
            ]
        );
        assert!(scenarios[0].1.is_empty());
        assert_eq!(scenarios[4].1.faults.len(), 8);
    }

    fn run_serial(cfg: &CampaignConfig) -> CampaignRunReport {
        let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
        run_campaign_runner(cfg, &rcfg, &chaos, UnitSinks::default()).unwrap()
    }

    #[test]
    fn tiny_campaign_full_delivery_and_deterministic() {
        let report = run_serial(&tiny());
        assert_eq!(report.runner.records.len(), 2 * Design::ALL.len());
        for row in report.runner.ok_payloads() {
            assert_eq!(
                row.delivered + row.dropped,
                row.injected,
                "{} / {}: unaccounted packets",
                row.design,
                row.scenario
            );
            assert_eq!(
                row.dropped, 0,
                "{} / {}: rerouting should save all",
                row.design, row.scenario
            );
            assert!(!row.stalled, "{} / {}: stalled", row.design, row.scenario);
        }
        assert_eq!(report.runner.counts().ok, report.runner.records.len());
        let again = run_serial(&tiny());
        assert_eq!(report.to_csv(), again.to_csv());
        assert_eq!(serde_json::to_string(&report).unwrap(), serde_json::to_string(&again).unwrap());
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let report = run_serial(&tiny());
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + report.runner.records.len());
        assert!(csv.starts_with("design,scenario,"));
        assert!(report.min_delivery_rate() > 0.999);
    }

    #[test]
    fn unit_keys_embed_scenario_design_and_rate() {
        let cfg = tiny();
        let units = campaign_unit_keys(&cfg);
        assert_eq!(units.len(), 2 * Design::ALL.len());
        assert_eq!(units[0].0, "campaign/fault-free/SECDED/r0.01");
        assert!(units.iter().all(|(k, _, _)| k.starts_with("campaign/")));
        let mut keys: Vec<&str> = units.iter().map(|(k, _, _)| k.as_str()).collect();
        keys.dedup();
        assert_eq!(keys.len(), units.len(), "keys must be unique");
    }

    #[test]
    fn runner_csv_carries_status_and_attempts_columns() {
        let report = run_serial(&tiny());
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().ends_with("status,attempts"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",ok,1")));
        assert!(report.runner.is_clean());
    }

    /// Acceptance: under a fault storm (hard router failure mid-run plus
    /// flapping links), every design at several seeds keeps the
    /// transaction-conservation invariant, and serial vs parallel
    /// executions of the same closed-loop campaign are byte-identical.
    #[test]
    fn closed_loop_fault_storm_conserves_across_designs_and_seeds() {
        for seed in [3, 7, 11] {
            let cfg = CampaignConfig {
                rate: 0.02,
                ppn: 2,
                seed,
                dead_links: vec![2],
                router_fail_at: Some(300),
                flapping: 1,
                fault_aware_routing: true,
                max_cycles: 200_000,
                reqreply: Some(noc_traffic::ReqReplySpec {
                    reply_timeout: 400,
                    max_retries: 2,
                    backoff_base: 16,
                    backoff_cap: 128,
                    ..noc_traffic::ReqReplySpec::default()
                }),
            };
            let serial = run_serial(&cfg);
            assert_eq!(
                serial.conservation_violations(),
                Vec::<String>::new(),
                "seed {seed}: conservation must hold under the fault storm"
            );
            for rec in &serial.runner.records {
                let row = rec.payload.as_ref().expect("every cell produces a row");
                assert!(row.txn_violations.is_some(), "closed-loop cells carry txn columns");
            }
            let parallel = run_campaign_runner(
                &cfg,
                &RunnerConfig { jobs: 4, ..RunnerConfig::serial() },
                &ChaosOptions::default(),
                UnitSinks::default(),
            )
            .unwrap();
            assert_eq!(
                serial.to_csv(),
                parallel.to_csv(),
                "seed {seed}: serial and parallel campaigns must be byte-identical"
            );
        }
    }

    #[test]
    fn forced_panic_cell_renders_empty_metrics_with_named_columns() {
        let chaos =
            ChaosOptions { panic_units: Some("dead-links-1/EB".to_owned()), timeout_units: None };
        let report =
            run_campaign_runner(&tiny(), &RunnerConfig::serial(), &chaos, UnitSinks::default())
                .unwrap();
        let csv = report.to_csv();
        let failed: Vec<&str> = csv.lines().filter(|l| l.contains(",failed,")).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("EB,dead-links-1,"), "{}", failed[0]);
        assert_eq!(report.runner.counts().failed, 1);
        assert_eq!(report.runner.counts().ok, 2 * Design::ALL.len() - 1);
    }
}
