//! The latency-vs-load sweep behind `intellinoc sweep` and the mesh-scaling
//! study. The sweep is a [`run_grid`](crate::run_grid) grid:
//! [`load_sweep_cells`] builds it, open- or closed-loop.

use crate::designs::Design;
use crate::experiment::{rate_workload, ExperimentConfig};
use crate::runner::derive_seed;
use noc_traffic::{ReqReplySpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The cells of a latency-vs-load sweep: one per injection rate, in `rates`
/// order, keyed `sweep/<design>/r<rate>` and seeded from `(master_seed,
/// key)`; closed-loop when `reqreply` is given. Duplicate rates produce
/// duplicate keys, which the engine rejects.
#[must_use]
pub fn load_sweep_cells(
    design: Design,
    rates: &[f64],
    ppn: u64,
    master_seed: u64,
    reqreply: Option<&ReqReplySpec>,
) -> Vec<(String, ExperimentConfig)> {
    rates
        .iter()
        .map(|&rate| {
            let key = format!("sweep/{}/r{rate}", design.label());
            let cfg = ExperimentConfig::new(design, rate_workload(rate, ppn, reqreply))
                .with_seed(derive_seed(master_seed, &key));
            (key, cfg)
        })
        .collect()
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
    use crate::experiment::{run_grid, ExperimentOutcome, UnitSinks};
    use crate::runner::{ChaosOptions, RunnerConfig, RunnerReport};

    #[test]
    fn mesh_scaling_covers_sizes_and_conserves_packets() {
        let pts = mesh_scaling(Design::Secded, &[4, 8], 0.02, 10);
        assert_eq!(pts[0].side, 4);
        assert_eq!(pts[0].delivered, 16 * 10);
        assert_eq!(pts[1].delivered, 64 * 10);
        // Bigger mesh, longer average paths.
        assert!(pts[1].latency > pts[0].latency);
    }

    fn sweep(
        rates: &[f64],
        ppn: u64,
        seed: u64,
        jobs: usize,
    ) -> Result<RunnerReport<ExperimentOutcome>, String> {
        run_grid(
            &load_sweep_cells(Design::Secded, rates, ppn, seed, None),
            &RunnerConfig::serial().with_jobs(jobs),
            &ChaosOptions::default(),
            UnitSinks::default(),
        )
    }

    #[test]
    fn load_sweep_is_parallel_serial_identical() {
        let rates = [0.01, 0.02];
        let serial = sweep(&rates, 4, 7, 1).unwrap();
        let parallel = sweep(&rates, 4, 7, 2).unwrap();
        assert!(serial.is_clean());
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        let points: Vec<&ExperimentOutcome> = serial.ok_payloads().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workload, WorkloadSpec::uniform(0.01, 4).name);
        assert!(points
            .iter()
            .all(|p| p.report.stats.delivery_ratio() > 0.999 && p.report.power.total_mw() > 0.0));
    }

    #[test]
    fn duplicate_sweep_rates_are_rejected() {
        let err = sweep(&[0.01, 0.01], 3, 1, 1).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
