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
//! A campaign is one [`run_grid`](crate::run_grid) grid:
//! [`CampaignConfig::cells`] builds each (scenario, design) cell with a
//! stable run key and a key-derived seed, so the grid can run on `jobs`
//! worker threads, survive panicking or hung cells, and resume from a
//! journal — all while producing merged reports byte-identical to a serial
//! run — and [`CampaignRunReport`] (the config beside the runner report)
//! renders the outcomes that come back. Fleet profiling and per-cell
//! journey logs are `run_grid`'s [`UnitSinks`](crate::UnitSinks) argument.

use crate::designs::Design;
use crate::experiment::{rate_workload, ExperimentConfig, ExperimentOutcome};
use crate::runner::{derive_seed, RunnerReport, UnitRecord};
use noc_sim::{HardFaultScenario, NetworkStats};
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
    /// runs the closed-loop workload instead of open-loop uniform injection,
    /// and [`CampaignRunReport::conservation_violations`] audits its books.
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

/// The campaign mesh, 8×8, and its number of links.
const W: usize = 8;
const H: usize = 8;
const LINKS: usize = (W - 1) * H + W * (H - 1);

/// The seeded scenario family a [`CampaignConfig`] describes, as
/// `(name, scenario)` pairs in a fixed order.
pub fn campaign_scenarios(cfg: &CampaignConfig) -> Vec<(String, HardFaultScenario)> {
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

/// Refuses a fault count the campaign mesh cannot hold: a `--dead-links`
/// entry or a `--flapping` count above its 112 links. The scenario builders
/// clamp such a count to every link, while the scenario's name would still
/// carry the count asked for.
///
/// # Errors
///
/// Names the flag and the count.
pub fn check_fault_counts(cfg: &CampaignConfig) -> Result<(), String> {
    let too_many = |flag: &str, n: usize| {
        Err(format!("{flag} {n} exceeds the {LINKS} links of the {W}x{H} mesh"))
    };
    match cfg.dead_links.iter().find(|&&n| n > LINKS) {
        Some(&n) => too_many("--dead-links entry", n),
        None if cfg.flapping > LINKS => too_many("--flapping", cfg.flapping),
        None => Ok(()),
    }
}

/// The campaign grid's cell identities in canonical order — every scenario
/// (`scenarios` is [`campaign_scenarios`]) × every design ([`Design::ALL`]
/// order), scenario-major: the order of [`CampaignConfig::cells`] and so of
/// every report's records.
fn cell_ids(
    scenarios: &[(String, HardFaultScenario)],
) -> impl Iterator<Item = (&String, &HardFaultScenario, Design)> {
    scenarios
        .iter()
        .flat_map(|(name, scenario)| Design::ALL.map(move |design| (name, scenario, design)))
}

impl CampaignConfig {
    /// The campaign's grid, one cell per scenario × design. The key
    /// `campaign/<scenario>/<design>/r<rate>` embeds scenario, design and
    /// injection rate, so the cell's seed ([`derive_seed`] of the master
    /// seed and key) is stable across execution orders and grid reshapes.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentConfig)> {
        let cell = |(name, scenario, design): (&String, &HardFaultScenario, Design)| {
            let key = format!("campaign/{name}/{}/r{}", design.label(), self.rate);
            let workload = rate_workload(self.rate, self.ppn, self.reqreply.as_ref());
            let cfg = ExperimentConfig {
                max_cycles: self.max_cycles,
                hard_faults: scenario.clone(),
                fault_aware_routing: self.fault_aware_routing,
                ..ExperimentConfig::new(design, workload)
            }
            .with_seed(derive_seed(self.seed, &key));
            (key, cfg)
        };
        cell_ids(&campaign_scenarios(self)).map(cell).collect()
    }
}

/// The full campaign grid as executed by the `noc-runner` engine: the
/// config plus one [`UnitRecord`] per cell in canonical order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRunReport {
    /// The campaign parameters (embedded so a report is self-describing).
    pub config: CampaignConfig,
    /// Per-cell records (status + outcome + diagnostics), scenario-major.
    pub runner: RunnerReport<ExperimentOutcome>,
}

impl CampaignRunReport {
    /// Every cell as `(design label, scenario name, record)`. Identity
    /// comes from the record's position in [`CampaignConfig::cells`] order,
    /// so a failed or skipped cell is as well named as a completed one. A
    /// run that ended before its scenario's first fault activated (a router
    /// failure scheduled past the run's last cycle) fired none: its scenario
    /// name says so with a `-never-fired` suffix.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, String, &UnitRecord<ExperimentOutcome>)> {
        cell_ids(&campaign_scenarios(&self.config))
            .zip(&self.runner.records)
            .map(|((name, scenario, design), rec)| {
                // A run of `c` cycles simulated cycles `0..c`.
                let unfired = rec.payload.as_ref().is_some_and(|o| {
                    let c = o.report.stats.cycles;
                    !scenario.is_empty() && scenario.faults.iter().all(|f| f.at >= c)
                });
                let name = if unfired { format!("{name}-never-fired") } else { name.clone() };
                (design.label(), name, rec)
            })
            .collect()
    }

    /// Smallest delivery rate across cleanly completed cells that injected
    /// something.
    pub fn min_delivery_rate(&self) -> f64 {
        self.runner.ok_payloads().filter_map(|o| delivery_rate(&o.report.stats)).fold(1.0, f64::min)
    }

    /// `design/scenario` labels of cells whose conservation auditor found
    /// violations. Non-empty means leaked transactions — the campaign must
    /// fail loudly.
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        self.rows()
            .into_iter()
            .filter(|(_, _, rec)| {
                let txn = rec.payload.as_ref().and_then(|o| o.report.txn.as_ref());
                txn.is_some_and(|t| t.violations > 0)
            })
            .map(|(design, scenario, _)| format!("{design}/{scenario}"))
            .collect()
    }

    /// Renders every cell as CSV: the classic campaign columns plus
    /// `status`. Cells without a payload (failed, skipped) render empty
    /// metric fields, a run that injected nothing an empty delivery rate.
    /// Fixed float formatting keeps equal campaigns byte-identical.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.runner.records.len() * 112 + 160);
        out.push_str(
            "design,scenario,injected,delivered,dropped,delivery_rate,\
             avg_latency,p99_latency,reroutes,hop_retx,e2e_retx,stalled,cycles,mttf_hours,\
             txn_failed,txn_shed,txn_violations,status\n",
        );
        for (design, scenario, rec) in self.rows() {
            let _ = write!(out, "{design},{scenario},");
            match &rec.payload {
                Some(o) => {
                    let (r, s) = (&o.report, &o.report.stats);
                    let txn = |f: fn(&noc_sim::TxnSummary) -> u64| {
                        r.txn.as_ref().map_or_else(String::new, |t| f(t).to_string())
                    };
                    let _ = write!(
                        out,
                        "{},{},{},{},{:.3},{:.1},{},{},{},{},{},{},{},{},{}",
                        s.packets_injected,
                        s.packets_delivered,
                        s.packets_dropped,
                        delivery_rate(s).map_or_else(String::new, |d| format!("{d:.6}")),
                        s.avg_latency(),
                        s.latency_percentile(0.99),
                        s.reroutes,
                        s.hop_retx_events,
                        s.e2e_retx_packets,
                        r.stall.is_some(),
                        s.cycles,
                        r.mttf_hours.map_or_else(String::new, |h| format!("{h:.3e}")),
                        txn(|t| t.failed),
                        txn(|t| t.shed),
                        txn(|t| t.violations),
                    );
                }
                None => out.push_str(",,,,,,,,,,,,,,"),
            }
            let _ = writeln!(out, ",{}", rec.status.label());
        }
        out
    }

    /// Renders every cell as the campaign table `intellinoc campaign` prints
    /// and the resilience study writes: one aligned row per cell, dashes for
    /// a cell without a payload (failed, skipped) and for the delivery rate
    /// of a run that injected nothing.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let mut line = |f: [&str; 11]| {
            let _ = writeln!(
                out,
                "{:<11} {:<20} {:>8} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7} {:>10}",
                f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7], f[8], f[9], f[10]
            );
        };
        line([
            "design", "scenario", "injected", "deliver", "drop", "deliv%", "avg_lat", "p99_lat",
            "reroute", "stalled", "status",
        ]);
        for (design, scenario, rec) in self.rows() {
            let metrics = rec.payload.as_ref().map(|o| {
                let s = &o.report.stats;
                [
                    s.packets_injected.to_string(),
                    s.packets_delivered.to_string(),
                    s.packets_dropped.to_string(),
                    delivery_rate(s).map_or_else(|| "-".into(), |d| format!("{:.3}", 100.0 * d)),
                    format!("{:.1}", s.avg_latency()),
                    format!("{:.0}", s.latency_percentile(0.99)),
                    s.reroutes.to_string(),
                    (if o.report.stall.is_some() { "YES" } else { "-" }).into(),
                ]
            });
            let m = metrics.unwrap_or_else(|| std::array::from_fn(|_| "-".into()));
            let status = rec.status.label();
            line([
                design, &scenario, &m[0], &m[1], &m[2], &m[3], &m[4], &m[5], &m[6], &m[7], status,
            ]);
        }
        out
    }
}

/// The run's delivery rate: `None` for a run that injected nothing, which
/// has no rate to report.
fn delivery_rate(s: &NetworkStats) -> Option<f64> {
    (s.packets_injected > 0).then(|| s.delivery_ratio())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_grid, UnitSinks};
    use crate::runner::{ChaosOptions, RunnerConfig};

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

    /// `cfg`'s campaign as the CLI runs it: its cells through [`run_grid`].
    fn run(cfg: &CampaignConfig, rcfg: &RunnerConfig, chaos: &ChaosOptions) -> CampaignRunReport {
        let runner = run_grid(&cfg.cells(), rcfg, chaos, UnitSinks::default()).unwrap();
        CampaignRunReport { config: cfg.clone(), runner }
    }

    fn run_serial(cfg: &CampaignConfig) -> CampaignRunReport {
        run(cfg, &RunnerConfig::serial(), &ChaosOptions::default())
    }

    #[test]
    fn tiny_campaign_full_delivery_and_deterministic() {
        let report = run_serial(&tiny());
        assert_eq!(report.runner.records.len(), 2 * Design::ALL.len());
        for (design, scenario, rec) in report.rows() {
            let o = rec.payload.as_ref().expect("every cell completes");
            let s = &o.report.stats;
            assert_eq!(
                s.packets_delivered + s.packets_dropped,
                s.packets_injected,
                "{design} / {scenario}: unaccounted packets"
            );
            assert_eq!(s.packets_dropped, 0, "{design} / {scenario}: rerouting should save all");
            assert!(o.report.stall.is_none(), "{design} / {scenario}: stalled");
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
        let cells = cfg.cells();
        assert_eq!(cells.len(), 2 * Design::ALL.len());
        assert_eq!(cells[0].0, "campaign/fault-free/SECDED/r0.01");
        assert!(cells.iter().all(|(k, _)| k.starts_with("campaign/")));
        let mut keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "keys must be unique");
        // Every cell arrives fully built: key-derived seed, the campaign's
        // budget and routing policy, its scenario's faults.
        for (key, cell) in &cells {
            assert_eq!(cell.seed, derive_seed(cfg.seed, key), "{key}");
            assert_eq!((cell.max_cycles, cell.fault_aware_routing), (60_000, true), "{key}");
        }
        assert!(cells[0].1.hard_faults.is_empty());
        assert_eq!(cells[Design::ALL.len()].1.hard_faults.faults.len(), 1);
    }

    #[test]
    fn runner_csv_carries_the_status_column() {
        let report = run_serial(&tiny());
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",txn_violations,status"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",ok")));
        assert!(report.runner.is_clean());
    }

    /// The flapping half of the default campaign (`--dead-links 0
    /// --no-router-fail --flapping 2`, ten cells at the default load): a
    /// link that flaps back is a transient fault, so every design delivers
    /// every packet and no cell stalls.
    #[test]
    fn default_flapping_campaign_delivers_everything() {
        let cfg =
            CampaignConfig { dead_links: vec![0], router_fail_at: None, ..Default::default() };
        let report = run_serial(&cfg);
        assert_eq!(report.runner.records.len(), 2 * Design::ALL.len());
        for (design, scenario, rec) in report.rows() {
            assert_eq!(rec.status.label(), "ok", "{design} / {scenario}");
            let o = rec.payload.as_ref().expect("an ok cell has a payload");
            let s = &o.report.stats;
            assert!(o.report.stall.is_none(), "{design} / {scenario}: stalled");
            assert_eq!(s.packets_delivered, s.packets_injected, "{design} / {scenario}");
        }
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
                let o = rec.payload.as_ref().expect("every cell produces an outcome");
                assert!(o.report.txn.is_some(), "closed-loop cells carry txn columns");
            }
            let parallel =
                run(&cfg, &RunnerConfig::serial().with_jobs(4), &ChaosOptions::default());
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
        let report = run(&tiny(), &RunnerConfig::serial(), &chaos);
        let csv = report.to_csv();
        let failed: Vec<&str> = csv.lines().filter(|l| l.ends_with(",failed")).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("EB,dead-links-1,"), "{}", failed[0]);
        assert_eq!(report.runner.counts().failed, 1);
        assert_eq!(report.runner.counts().ok, 2 * Design::ALL.len() - 1);
    }

    /// A cell without a payload is named by its position in `cells()`
    /// order, never by taking its run key apart.
    #[test]
    fn failed_and_skipped_cells_keep_their_identity_without_the_key() {
        let chaos =
            ChaosOptions { panic_units: Some("fault-free/CP/".to_owned()), timeout_units: None };
        let capped = RunnerConfig { max_units: Some(9), ..RunnerConfig::serial() };
        let mut report = run(&tiny(), &capped, &chaos);
        let keyed = report.to_csv();
        for rec in &mut report.runner.records {
            rec.key = "?".to_owned();
        }
        let csv = report.to_csv();
        assert_eq!(csv, keyed);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows[3], "CP,fault-free,,,,,,,,,,,,,,,,failed");
        assert_eq!(rows[10], "IntelliNoC,dead-links-1,,,,,,,,,,,,,,,,skipped");
    }
}
