//! The latency-vs-load sweep behind `intellinoc sweep`: a
//! [`run_grid`](crate::run_grid) grid that [`load_sweep_cells`] builds, open-
//! or closed-loop.

use crate::designs::Design;
use crate::experiment::{rate_workload, ExperimentConfig};
use crate::runner::derive_seed;
use noc_traffic::ReqReplySpec;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_grid, ExperimentOutcome, UnitSinks};
    use crate::runner::{ChaosOptions, RunnerConfig, RunnerReport};
    use noc_traffic::WorkloadSpec;

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
