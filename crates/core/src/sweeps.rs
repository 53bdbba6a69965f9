//! The latency-vs-load sweep behind `intellinoc sweep` and the mesh-scaling
//! study. Each returns plain data so callers (the `figures` harness, tests,
//! the CLI) can print or assert on it. [`run_load_sweep`] is the one
//! runner-engine entry point; open- or closed-loop traffic and the fleet
//! sinks ([`UnitSinks`]) are its arguments.

use crate::designs::Design;
use crate::experiment::{ExperimentConfig, UnitSinks};
use crate::runner::{run_units, ChaosOptions, RunnerConfig, RunnerReport, UnitCtx};
use noc_traffic::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// One point of a latency-vs-load sweep (the `intellinoc sweep` CLI), as
/// produced per unit by the `noc-runner` execution engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Injection rate (packets/node/cycle).
    pub rate: f64,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Mean end-to-end latency (cycles).
    pub avg_latency: f64,
    /// 99th-percentile latency (cycles).
    pub p99_latency: f64,
    /// delivered / injected.
    pub delivery_rate: f64,
    /// Total average power (mW).
    pub power_mw: f64,
}

/// The sweep's canonical run keys: `sweep/<design>/r<rate>` per point.
pub fn load_sweep_keys(design: Design, rates: &[f64]) -> Vec<String> {
    rates.iter().map(|r| format!("sweep/{}/r{r}", design.label())).collect()
}

/// Runs a latency-vs-load sweep through the `noc-runner` engine: one
/// experiment unit per injection rate (closed-loop when `reqreply` is
/// given), each seeded from `(master_seed, run key)`, executed per `rcfg`
/// (workers, deadline, retry, journal/resume) with `chaos` failure
/// injection for robustness testing; every point feeds `sinks`, which never
/// move the report.
///
/// # Errors
///
/// Propagates engine-level errors (duplicate rates produce duplicate keys;
/// journal mismatch or I/O); unit-level failures are contained per point.
#[allow(clippy::too_many_arguments)]
pub fn run_load_sweep(
    design: Design,
    rates: &[f64],
    ppn: u64,
    master_seed: u64,
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    reqreply: Option<&noc_traffic::ReqReplySpec>,
    sinks: UnitSinks<'_>,
) -> Result<RunnerReport<LoadPoint>, String> {
    let keys = load_sweep_keys(design, rates);
    run_units(master_seed, &keys, rcfg, chaos, |ctx: &UnitCtx| {
        let idx = keys.iter().position(|k| k == ctx.key).expect("key from supplied list");
        let rate = rates[idx];
        let workload = match reqreply {
            Some(rr) => WorkloadSpec::reqreply(rate, ppn, rr.clone()),
            None => WorkloadSpec::uniform(rate, ppn),
        };
        let cfg = ExperimentConfig::new(design, workload).with_seed(ctx.seed);
        sinks.run_unit(cfg, ctx, |o| {
            let r = &o.report;
            LoadPoint {
                rate,
                exec_cycles: r.exec_cycles,
                avg_latency: r.avg_latency(),
                p99_latency: r.stats.latency_percentile(0.99),
                delivery_rate: r.stats.delivery_ratio(),
                power_mw: r.power.total_mw(),
            }
        })
    })
}

/// One point of the mesh-scaling study (not a paper figure; 8×8 is the
/// paper's only configuration, but a framework a downstream user adopts
/// must work beyond it).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Mesh side length.
    pub side: usize,
    /// Average latency (cycles) of the design at this size.
    pub latency: f64,
    /// Total power (mW).
    pub power_mw: f64,
    /// Packets delivered.
    pub delivered: u64,
}

/// Runs one design at several square mesh sizes under uniform traffic.
pub fn mesh_scaling(design: Design, sides: &[usize], rate: f64, ppn: u64) -> Vec<ScalePoint> {
    sides
        .iter()
        .map(|&side| {
            let mut sim_cfg = design.sim_config();
            sim_cfg.width = side;
            sim_cfg.height = side;
            sim_cfg.seed = 13;
            // Drive the simulator directly so we control the mesh size.
            let mut net = noc_sim::Network::new(sim_cfg, WorkloadSpec::uniform(rate, ppn), 13);
            let report = net.run_to_completion(crate::experiment::DEFAULT_TIME_STEP, |_, _| None);
            ScalePoint {
                side,
                latency: report.avg_latency(),
                power_mw: report.power.total_mw(),
                delivered: report.stats.packets_delivered,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_scaling_covers_sizes_and_conserves_packets() {
        let pts = mesh_scaling(Design::Secded, &[4, 8], 0.02, 10);
        assert_eq!(pts[0].side, 4);
        assert_eq!(pts[0].delivered, 16 * 10);
        assert_eq!(pts[1].delivered, 64 * 10);
        // Bigger mesh, longer average paths.
        assert!(pts[1].latency > pts[0].latency);
    }

    #[test]
    fn load_sweep_is_parallel_serial_identical() {
        let rates = [0.01, 0.02];
        let serial = run_load_sweep(
            Design::Secded,
            &rates,
            4,
            7,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap();
        let parallel = run_load_sweep(
            Design::Secded,
            &rates,
            4,
            7,
            &RunnerConfig::serial().with_jobs(2),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap();
        assert!(serial.is_clean());
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        let points: Vec<&LoadPoint> = serial.ok_payloads().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].rate, 0.01);
        assert!(points.iter().all(|p| p.delivery_rate > 0.999 && p.power_mw > 0.0));
    }

    #[test]
    fn duplicate_sweep_rates_are_rejected() {
        let err = run_load_sweep(
            Design::Secded,
            &[0.01, 0.01],
            3,
            1,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
